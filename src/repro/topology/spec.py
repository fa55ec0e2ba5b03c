"""Pure-data, content-hashable network topologies.

A :class:`TopologySpec` declares the whole experiment graph:

* **nodes** — servers, APs (with a per-AP optimization mode), clients;
* **edges** — directed links: wired (rate + propagation delay) or
  wireless (wifi AMPDU bursts / cellular TTI slots) with a per-edge
  bandwidth trace, AQM discipline, interference level, and optional
  MCS / shared-channel groups;
* **flows** — heterogeneous RTP/TCP/QUIC endpoints pinned to node
  pairs, either latency-sensitive RTC flows or bulk competitors.

Everything is a plain JSON value, so a spec can participate in the
campaign content hash, be pickled to worker processes, and be stored in
manifests. The live simulation graph is materialized by
:class:`repro.topology.builder.TopologyBuilder`.

:func:`single_ap_topology` is the paper's sender–WAN–AP–client chain,
the graph a :class:`~repro.campaign.spec.ScenarioSpec` without an
explicit topology runs on; the other constructors build genuine ≥2-AP
graphs for interference, roaming, and first-mile studies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.traces.spec import TraceSpec

#: Bump when the topology payload schema changes incompatibly.
TOPOLOGY_SCHEMA_VERSION = 1

NODE_ROLES = ("server", "ap", "client")
AP_MODES = ("none", "zhuge", "fastack", "abc")
LINK_KINDS = ("wifi", "cellular")
EDGE_KINDS = ("wired",) + LINK_KINDS
FLOW_ROLES = ("rtc", "competitor")
PROTOCOLS = ("rtp", "tcp", "quic")
QUEUE_KINDS = ("droptail", "fifo", "codel", "fq_codel")
APPS = ("video", "bulk")


def _clean(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if v is not None}


@dataclass(frozen=True)
class NodeSpec:
    """One vertex of the graph: a server, an AP, or a client station."""

    name: str
    role: str
    #: Only meaningful for ``role == "ap"``: none | zhuge | fastack | abc.
    ap_mode: str = "none"
    #: RNG fork label for this node's stochastic state (Zhuge's jitter
    #: stream). ``None`` -> ``"zhuge-<name>"``. The canonical single-AP
    #: topology pins the historical label ``"zhuge"``.
    seed_label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node needs a name")
        if self.role not in NODE_ROLES:
            raise ValueError(f"unknown node role {self.role!r}")
        if self.role == "ap" and self.ap_mode not in AP_MODES:
            raise ValueError(f"unknown ap_mode {self.ap_mode!r}")

    def as_dict(self) -> dict:
        return _clean({"name": self.name, "role": self.role,
                       "ap_mode": self.ap_mode,
                       "seed_label": self.seed_label})

    @classmethod
    def from_dict(cls, payload: dict) -> "NodeSpec":
        return cls(**payload)


@dataclass(frozen=True)
class EdgeSpec:
    """One directed link of the graph.

    ``kind == "wired"`` uses ``rate_bps`` (``None`` = pure delay) and
    ``delay``; wireless kinds draw capacity from ``trace`` (``None`` =
    the scenario-level trace) scaled by ``trace_scale``, shaped by the
    AQM ``queue_kind``, and optionally degraded by ``interferers``
    stochastic stations. Edges sharing an ``mcs_group`` share one MCS
    controller; edges sharing a ``channel_group`` contend for airtime
    on one physical channel. ``enabled=False`` edges exist in the spec
    but start detached — they are roam targets a handoff activates.
    """

    src: str
    dst: str
    name: str = ""
    kind: str = "wired"
    rate_bps: Optional[float] = None
    delay: float = 0.0
    trace: Optional[TraceSpec] = None
    trace_scale: float = 1.0
    queue_kind: str = "droptail"
    queue_capacity: int = 375_000
    interferers: int = 0
    max_ampdu_packets: int = 16
    mcs_group: Optional[str] = None
    mcs_period: Optional[float] = None
    channel_group: Optional[str] = None
    #: RNG fork label for this edge's interference stream. ``None`` ->
    #: ``"intf-<name>"``; the canonical single-AP topology pins the
    #: historical labels ``"intf"`` / ``"intf-up"``.
    seed_label: Optional[str] = None
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"{self.src}-{self.dst}")
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"unknown link_kind {self.kind!r}")
        if self.queue_kind not in QUEUE_KINDS:
            raise ValueError(f"unknown queue_kind {self.queue_kind!r}")
        if self.kind == "wired" and self.trace is not None:
            raise ValueError(f"wired edge {self.name!r} cannot carry a trace")
        if self.delay < 0:
            raise ValueError(f"edge {self.name!r} has negative delay")

    @property
    def wireless(self) -> bool:
        return self.kind in LINK_KINDS

    def as_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.trace is not None:
            payload["trace"] = self.trace.as_dict()
        return _clean(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "EdgeSpec":
        payload = dict(payload)
        trace = payload.get("trace")
        if trace is not None:
            payload["trace"] = TraceSpec.from_dict(trace)
        return cls(**payload)


@dataclass(frozen=True)
class FlowSpec:
    """One transport flow between two nodes.

    ``protocol``/``cca``/``app`` default to ``None`` meaning "inherit
    from the scenario spec" — the single-AP chain relies on this so
    one topology template serves every protocol sweep. ``role`` selects
    the endpoint stack: ``"rtc"`` builds the latency-sensitive video
    pipeline (and is eligible for AP optimization when ``optimized``),
    ``"competitor"`` builds a CUBIC bulk flow (optionally on/off with
    ``period``).
    """

    src: str
    dst: str
    role: str = "rtc"
    protocol: Optional[str] = None
    cca: Optional[str] = None
    app: Optional[str] = None
    optimized: bool = True
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    period: Optional[float] = None
    #: RNG fork label for this flow's stochastic state (the video
    #: encoder's frame-size stream). ``None`` -> ``"enc-<build index>"``,
    #: the historical per-run counter. Generated city topologies pin an
    #: explicit label per flow so a flow's RNG stream is a function of
    #: the spec alone — the property that makes a decomposable topology
    #: simulate bit-identically whole or shard-by-shard.
    seed_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.role not in FLOW_ROLES:
            raise ValueError(f"unknown flow role {self.role!r}")
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.app is not None and self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")

    def as_dict(self) -> dict:
        return _clean({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_dict(cls, payload: dict) -> "FlowSpec":
        return cls(**payload)


@dataclass(frozen=True)
class TopologySpec:
    """A whole experiment graph: nodes, directed edges, flows."""

    nodes: tuple[NodeSpec, ...]
    edges: tuple[EdgeSpec, ...]
    flows: tuple[FlowSpec, ...] = ()
    version: int = TOPOLOGY_SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "flows", tuple(self.flows))
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        known = set(names)
        edge_names = [e.name for e in self.edges]
        if len(set(edge_names)) != len(edge_names):
            raise ValueError(f"duplicate edge names in {edge_names}")
        for edge in self.edges:
            for end in (edge.src, edge.dst):
                if end not in known:
                    raise ValueError(
                        f"edge {edge.name!r} references unknown node {end!r}")
        for flow in self.flows:
            for end in (flow.src, flow.dst):
                if end not in known:
                    raise ValueError(
                        f"flow {flow.src}->{flow.dst} references "
                        f"unknown node {end!r}")

    # -- lookups -------------------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def edge(self, name: str) -> EdgeSpec:
        for edge in self.edges:
            if edge.name == name:
                return edge
        raise KeyError(name)

    def aps(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.role == "ap")

    # -- contention structure ------------------------------------------------

    def contention_domains(self) -> tuple[tuple[str, ...], ...]:
        """Maximal groups of nodes coupled through the wireless medium.

        Two nodes land in the same domain when they are endpoints of one
        wireless edge (a client and its AP always contend for the same
        airtime, and ``enabled=False`` roam-target edges count — a roam
        would couple them mid-run), or when their wireless edges share a
        ``channel_group`` (the builder materializes one
        :class:`~repro.wireless.contention.ContentionDomain` per group,
        so every edge of a group consumes the same airtime budget).

        Nodes with no wireless edge at all (WAN-side servers, wired
        relays) are *infrastructure*: they belong to no domain and may
        be replicated freely, which is exactly what the city sharder
        (:mod:`repro.city.shard`) does with them.

        Returns a tuple of domains, each a tuple of node names; node
        order inside a domain and domain order both follow the spec's
        node declaration order, so the result is deterministic for a
        given spec.
        """
        parent: dict[str, str] = {}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:  # path compression
                parent[name], name = root, parent[name]
            return root

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        group_anchor: dict[str, str] = {}
        for edge in self.edges:
            if not edge.wireless:
                continue
            for end in (edge.src, edge.dst):
                parent.setdefault(end, end)
            union(edge.src, edge.dst)
            if edge.channel_group is not None:
                anchor = group_anchor.setdefault(edge.channel_group,
                                                 edge.src)
                union(anchor, edge.src)

        order = {node.name: i for i, node in enumerate(self.nodes)}
        members: dict[str, list[str]] = {}
        for name in sorted(parent, key=order.__getitem__):
            members.setdefault(find(name), []).append(name)
        return tuple(tuple(group) for group in
                     sorted(members.values(), key=lambda g: order[g[0]]))

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict:
        return {"version": self.version,
                "nodes": [n.as_dict() for n in self.nodes],
                "edges": [e.as_dict() for e in self.edges],
                "flows": [f.as_dict() for f in self.flows]}

    @classmethod
    def from_dict(cls, payload: dict) -> "TopologySpec":
        return cls(
            version=payload.get("version", TOPOLOGY_SCHEMA_VERSION),
            nodes=tuple(NodeSpec.from_dict(n) for n in payload["nodes"]),
            edges=tuple(EdgeSpec.from_dict(e) for e in payload["edges"]),
            flows=tuple(FlowSpec.from_dict(f) for f in payload.get("flows",
                                                                   ())))


# ---------------------------------------------------------------------------
# Canonical constructors
# ---------------------------------------------------------------------------


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
