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
manifests; a ``None`` field is left out of its payload. The live
simulation graph is materialized by
:class:`repro.topology.builder.TopologyBuilder`.

:mod:`repro.topology.presets` builds the canonical graphs from these
types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cca import WINDOW_CCAS
from repro.spec_codec import SpecCodec, omittable
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


@dataclass(frozen=True)
class NodeSpec(SpecCodec):
    """One vertex of the graph: a server, an AP, or a client station."""

    name: str
    role: str
    #: Only meaningful for ``role == "ap"``: none | zhuge | fastack | abc.
    ap_mode: str = "none"
    #: RNG fork label for this node's stochastic state (Zhuge's jitter
    #: stream). ``None`` -> ``"zhuge-<name>"``. The canonical single-AP
    #: topology pins the historical label ``"zhuge"``.
    seed_label: Optional[str] = omittable()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node needs a name")
        if self.role not in NODE_ROLES:
            raise ValueError(f"unknown node role {self.role!r}")
        if self.role == "ap" and self.ap_mode not in AP_MODES:
            raise ValueError(f"unknown ap_mode {self.ap_mode!r}")


@dataclass(frozen=True)
class EdgeSpec(SpecCodec):
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
    rate_bps: Optional[float] = omittable()
    delay: float = 0.0
    trace: Optional[TraceSpec] = omittable()
    trace_scale: float = 1.0
    queue_kind: str = "droptail"
    queue_capacity: int = 375_000
    interferers: int = 0
    max_ampdu_packets: int = 16
    mcs_group: Optional[str] = omittable()
    mcs_period: Optional[float] = omittable()
    channel_group: Optional[str] = omittable()
    #: RNG fork label for this edge's interference stream. ``None`` ->
    #: ``"intf-<name>"``; the canonical single-AP topology pins the
    #: historical labels ``"intf"`` / ``"intf-up"``.
    seed_label: Optional[str] = omittable()
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
        if not 0 <= self.delay < math.inf:
            raise ValueError(
                f"edge {self.name!r} delay must be finite and non-negative: "
                f"{self.delay}")
        if self.rate_bps is not None and not 0 < self.rate_bps < math.inf:
            raise ValueError(
                f"edge {self.name!r} rate_bps must be finite and positive: "
                f"{self.rate_bps}")
        if not 0 < self.trace_scale < math.inf:
            raise ValueError(
                f"edge {self.name!r} trace_scale must be finite and "
                f"positive: {self.trace_scale}")
        if self.mcs_period is not None and not 0 < self.mcs_period < math.inf:
            raise ValueError(
                f"edge {self.name!r} mcs_period must be finite and "
                f"positive: {self.mcs_period}")
        if not self.queue_capacity > 0:
            raise ValueError(f"edge {self.name!r} queue_capacity must be "
                             f"positive: {self.queue_capacity}")
        if not self.interferers >= 0:
            raise ValueError(f"edge {self.name!r} interferers must be "
                             f"non-negative: {self.interferers}")
        if not self.max_ampdu_packets >= 1:
            raise ValueError(f"edge {self.name!r} max_ampdu_packets must be "
                             f">= 1: {self.max_ampdu_packets}")

    @property
    def wireless(self) -> bool:
        return self.kind in LINK_KINDS


@dataclass(frozen=True)
class FlowSpec(SpecCodec):
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
    protocol: Optional[str] = omittable()
    cca: Optional[str] = omittable()
    app: Optional[str] = omittable()
    optimized: bool = True
    src_port: Optional[int] = omittable()
    dst_port: Optional[int] = omittable()
    period: Optional[float] = omittable()
    #: RNG fork label for this flow's stochastic state (the video
    #: encoder's frame-size stream). ``None`` -> ``"enc-<build index>"``,
    #: the historical per-run counter. Generated city topologies pin an
    #: explicit label per flow so a flow's RNG stream is a function of
    #: the spec alone — the property that makes a decomposable topology
    #: simulate bit-identically whole or shard-by-shard.
    seed_label: Optional[str] = omittable()

    def __post_init__(self) -> None:
        if self.role not in FLOW_ROLES:
            raise ValueError(f"unknown flow role {self.role!r}")
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.app is not None and self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")
        # A competitor is a TCP bulk flow: its cca is a window CCA.
        if (self.role == "competitor" and self.cca is not None
                and self.cca not in WINDOW_CCAS):
            raise ValueError(f"unknown competitor cca {self.cca!r}; "
                             f"expected one of {sorted(WINDOW_CCAS)}")
        if self.period is not None and not 0 < self.period < math.inf:
            raise ValueError(f"flow {self.src}->{self.dst} period must be "
                             f"finite and positive: {self.period}")


@dataclass(frozen=True)
class TopologySpec(SpecCodec):
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
