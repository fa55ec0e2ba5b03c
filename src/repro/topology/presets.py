"""Canonical topologies built from :mod:`repro.topology.spec` types.

:func:`single_ap_topology` is the paper's sender–WAN–AP–client chain,
the graph a :class:`~repro.campaign.spec.ScenarioSpec` without an
explicit topology runs on; the other constructors build genuine ≥2-AP
graphs for interference, roaming, and first-mile studies.
"""

from __future__ import annotations

from typing import Optional

from repro.topology.spec import EdgeSpec, FlowSpec, NodeSpec, TopologySpec
from repro.traces.spec import TraceSpec


def single_ap_topology(spec) -> TopologySpec:
    """The sender–WAN–AP–wireless–client chain of paper Fig. 1.

    Reads the topology-shaping fields of a
    :class:`~repro.campaign.spec.ScenarioSpec` (the trace stays
    scenario-level). Every queue class, RNG fork label, capacity, and
    name is pinned, so single-AP scenarios reproduce the golden
    summaries bit-identically.
    """
    mcs_group = "mcs" if spec.mcs_switch_period is not None else None
    nodes = (
        NodeSpec("server", "server"),
        NodeSpec("ap", "ap", ap_mode=spec.ap_mode, seed_label="zhuge"),
        NodeSpec("client", "client"),
    )
    edges = (
        EdgeSpec("server", "ap", name="wan-down", kind="wired",
                 rate_bps=1e9, delay=spec.wan_delay),
        EdgeSpec("ap", "client", name="down", kind=spec.link_kind,
                 queue_kind=spec.queue_kind,
                 queue_capacity=spec.queue_capacity,
                 interferers=spec.interferers,
                 mcs_group=mcs_group, mcs_period=spec.mcs_switch_period,
                 seed_label="intf"),
        EdgeSpec("client", "ap", name="up", kind="wifi",
                 trace_scale=spec.uplink_scale,
                 queue_kind="droptail", queue_capacity=200_000,
                 interferers=spec.interferers, max_ampdu_packets=8,
                 mcs_group=mcs_group, seed_label="intf-up"),
        EdgeSpec("ap", "server", name="wan-up", kind="wired",
                 rate_bps=None, delay=spec.wan_delay),
    )
    mask = spec.zhuge_flow_mask or tuple([True] * spec.rtc_flows)
    flows = tuple(
        FlowSpec("server", "client", role="rtc",
                 optimized=(i < len(mask) and bool(mask[i])))
        for i in range(spec.rtc_flows)
    ) + tuple(
        FlowSpec("server", "client", role="competitor",
                 period=spec.competitor_period)
        for _ in range(spec.competitors)
    )
    return TopologySpec(nodes=nodes, edges=edges, flows=flows)


def interference_topology(ap_mode: str = "none",
                          queue_kind: str = "fifo",
                          interferers: int = 0,
                          stations: Optional[int] = None,
                          wan_delay: float = 0.020,
                          queue_capacity: int = 375_000) -> TopologySpec:
    """Two APs sharing one channel: the Fig. 17 cross-AP setup.

    The RTC client sits on AP-A (running ``ap_mode``); ``stations``
    bulk TCP stations sit on AP-B, every wireless edge in one
    ``channel_group`` so AP-B's traffic genuinely consumes AP-A's
    airtime. Interference beyond the explicitly simulated stations is
    modeled by the residual stochastic ``interferers`` count on AP-A's
    edges (simulating 40 individual stations is not informative — they
    would each get starved — so the tail is statistical, as before).
    """
    if stations is None:
        stations = min(interferers, 3)
    residual = max(0, interferers - stations)
    nodes = [
        NodeSpec("server", "server"),
        NodeSpec("ap-a", "ap", ap_mode=ap_mode, seed_label="zhuge"),
        NodeSpec("ap-b", "ap"),
        NodeSpec("client", "client"),
    ]
    edges = [
        EdgeSpec("server", "ap-a", name="wan-a", kind="wired",
                 rate_bps=1e9, delay=wan_delay),
        EdgeSpec("ap-a", "client", name="a-down", kind="wifi",
                 queue_kind=queue_kind, queue_capacity=queue_capacity,
                 interferers=residual, channel_group="ch",
                 seed_label="intf"),
        EdgeSpec("client", "ap-a", name="a-up", kind="wifi",
                 trace_scale=0.5, queue_kind="droptail",
                 queue_capacity=200_000, interferers=residual,
                 max_ampdu_packets=8, channel_group="ch",
                 seed_label="intf-up"),
        EdgeSpec("ap-a", "server", name="wan-a-up", kind="wired",
                 rate_bps=None, delay=wan_delay),
        EdgeSpec("server", "ap-b", name="wan-b", kind="wired",
                 rate_bps=1e9, delay=wan_delay),
        EdgeSpec("ap-b", "server", name="wan-b-up", kind="wired",
                 rate_bps=None, delay=wan_delay),
    ]
    flows = [FlowSpec("server", "client", role="rtc")]
    for i in range(stations):
        sta = f"sta-{i}"
        nodes.append(NodeSpec(sta, "client"))
        edges.append(EdgeSpec("ap-b", sta, name=f"b-down-{i}", kind="wifi",
                              queue_kind="fifo",
                              queue_capacity=queue_capacity,
                              channel_group="ch",
                              seed_label=f"intf-b{i}"))
        edges.append(EdgeSpec(sta, "ap-b", name=f"b-up-{i}", kind="wifi",
                              trace_scale=0.5, queue_kind="droptail",
                              queue_capacity=200_000, max_ampdu_packets=8,
                              channel_group="ch",
                              seed_label=f"intf-b{i}-up"))
        flows.append(FlowSpec("server", sta, role="competitor"))
    return TopologySpec(nodes=tuple(nodes), edges=tuple(edges),
                        flows=tuple(flows))


def roaming_topology(ap_mode: str = "zhuge",
                     queue_kind: str = "fq_codel",
                     wan_delay: float = 0.020,
                     queue_capacity: int = 375_000) -> TopologySpec:
    """Two APs, one client: AP-B's edges start disabled (roam target).

    A ``roam@t+d/client:ap-b`` fault detaches the client from AP-A,
    flushes in-flight state, and re-attaches it to AP-B — a real
    inter-AP handoff with Fortune-Teller state restarting on AP-B while
    the out-of-band release floor carries over (release-time
    monotonicity survives the move).
    """
    nodes = (
        NodeSpec("server", "server"),
        NodeSpec("ap-a", "ap", ap_mode=ap_mode, seed_label="zhuge"),
        NodeSpec("ap-b", "ap", ap_mode=ap_mode, seed_label="zhuge-b"),
        NodeSpec("client", "client"),
    )
    edges = (
        EdgeSpec("server", "ap-a", name="wan-a", kind="wired",
                 rate_bps=1e9, delay=wan_delay),
        EdgeSpec("ap-a", "server", name="wan-a-up", kind="wired",
                 rate_bps=None, delay=wan_delay),
        EdgeSpec("server", "ap-b", name="wan-b", kind="wired",
                 rate_bps=1e9, delay=wan_delay),
        EdgeSpec("ap-b", "server", name="wan-b-up", kind="wired",
                 rate_bps=None, delay=wan_delay),
        EdgeSpec("ap-a", "client", name="a-down", kind="wifi",
                 queue_kind=queue_kind, queue_capacity=queue_capacity,
                 seed_label="intf"),
        EdgeSpec("client", "ap-a", name="a-up", kind="wifi",
                 trace_scale=0.5, queue_kind="droptail",
                 queue_capacity=200_000, max_ampdu_packets=8,
                 seed_label="intf-up"),
        EdgeSpec("ap-b", "client", name="b-down", kind="wifi",
                 queue_kind=queue_kind, queue_capacity=queue_capacity,
                 seed_label="intf-b", enabled=False),
        EdgeSpec("client", "ap-b", name="b-up", kind="wifi",
                 trace_scale=0.5, queue_kind="droptail",
                 queue_capacity=200_000, max_ampdu_packets=8,
                 seed_label="intf-b-up", enabled=False),
    )
    flows = (FlowSpec("server", "client", role="rtc"),)
    return TopologySpec(nodes=nodes, edges=edges, flows=flows)


def first_mile_topology(wan_delay: float = 0.020,
                        queue_capacity: int = 375_000,
                        access_rate_bps: float = 50e6,
                        duration: float = 60.0) -> TopologySpec:
    """§6 first-mile: the *sender's own* wireless uplink is the bottleneck.

    The station uploads video through AP-A (its uplink carries the
    scenario trace — the bottleneck), across a WAN hop to AP-B, and
    over AP-B's generous wireless hop to the receiving peer: two real
    APs, with feedback crossing both wireless segments on the way back.
    """
    access = TraceSpec.constant(access_rate_bps, duration, name="access")
    nodes = (
        NodeSpec("station", "client"),
        NodeSpec("ap-a", "ap"),
        NodeSpec("ap-b", "ap"),
        NodeSpec("peer", "client"),
    )
    edges = (
        EdgeSpec("station", "ap-a", name="a-up", kind="wifi",
                 queue_kind="droptail", queue_capacity=queue_capacity,
                 seed_label="intf"),
        EdgeSpec("ap-a", "ap-b", name="wan-ab", kind="wired",
                 rate_bps=1e9, delay=wan_delay),
        EdgeSpec("ap-b", "peer", name="b-down", kind="wifi",
                 trace=access, queue_kind="droptail",
                 queue_capacity=queue_capacity, seed_label="intf-b"),
        EdgeSpec("peer", "ap-b", name="b-up", kind="wifi",
                 trace=access, trace_scale=0.5, queue_kind="droptail",
                 queue_capacity=200_000, max_ampdu_packets=8,
                 seed_label="intf-b-up"),
        EdgeSpec("ap-b", "ap-a", name="wan-ba", kind="wired",
                 rate_bps=None, delay=wan_delay),
        EdgeSpec("ap-a", "station", name="a-down", kind="wifi",
                 trace=access, queue_kind="droptail",
                 queue_capacity=200_000, max_ampdu_packets=8,
                 seed_label="intf-a-down"),
    )
    flows = (FlowSpec("station", "peer", role="rtc", protocol="rtp"),)
    return TopologySpec(nodes=nodes, edges=edges, flows=flows)
