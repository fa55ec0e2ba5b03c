"""Seeded random city-topology generation.

:class:`CityGenSpec` is pure data: every knob is a JSON value, the spec
round-trips through ``as_dict``/``from_dict``, and :meth:`build` is a
deterministic function of the spec — same spec, bit-identical
:class:`~repro.topology.spec.TopologySpec` (and therefore the same
campaign content hash; generated cities cache like hand-written
topologies).

Layout presets shape the contention structure, which is the thing that
matters at fleet scale:

* ``grid`` — suburban street grid: many small contention domains
  (channel reuse works), light per-AP load;
* ``apartment`` — dense residential block: mid-size domains (walls are
  thin, reuse is imperfect), bulk competitors common;
* ``stadium`` — one bowl: few, huge domains (every channel is packed),
  many clients per AP, heavy roaming.

Structure of one generated cell: a shared WAN core (``core``), one
wired down/up edge pair per AP (per-AP jittered WAN delay), and per
client one wireless down/up edge pair on the AP's ``channel_group``
plus an RTC flow from the core. Every stochastic stream a component
will use (encoder, interference, jitter) is pinned by *name* in the
spec — node/edge defaults are name-derived and flows carry explicit
``seed_label``s — so a generated city is decomposable: simulating a
sub-topology alone reproduces exactly what those components do inside
the full city (see :mod:`repro.city.shard`).

All draws come from named :class:`~repro.sim.random.DeterministicRandom`
forks of the city seed, one stream per concern, so e.g. enabling
roaming does not reshuffle client counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.sim.random import DeterministicRandom
from repro.spec_codec import SpecCodec
from repro.topology.spec import (EdgeSpec, FlowSpec, NodeSpec, TopologySpec)

#: Bump when the generated-topology layout changes incompatibly.
CITY_SCHEMA_VERSION = 1

#: Layout presets: knob defaults applied by :meth:`CityGenSpec.for_preset`.
CITY_PRESETS: dict[str, dict] = {
    "grid": {"channels": 3, "domain_size": 4,
             "clients_min": 1, "clients_max": 3,
             "competitor_share": 0.2, "roaming_share": 0.0},
    "apartment": {"channels": 3, "domain_size": 8,
                  "clients_min": 1, "clients_max": 4,
                  "competitor_share": 0.35, "roaming_share": 0.1},
    "stadium": {"channels": 6, "domain_size": 48,
                "clients_min": 6, "clients_max": 14,
                "competitor_share": 0.05, "roaming_share": 0.25},
}


@dataclass(frozen=True)
class CityGenSpec(SpecCodec):
    """Knobs of one generated city; deterministic per (spec, seed)."""

    preset: str = "grid"
    aps: int = 100
    seed: int = 1
    #: Orthogonal channels (the channel-reuse factor): AP ``i`` sits on
    #: channel ``i % channels``.
    channels: int = 3
    #: APs per contention domain: consecutive same-channel APs are
    #: grouped into ``channel_group`` blocks of this size. Small blocks
    #: model effective spatial reuse (grid), huge blocks model one
    #: packed hall (stadium).
    domain_size: int = 4
    clients_min: int = 1
    clients_max: int = 3
    #: Fraction of clients that also run a CUBIC bulk competitor.
    competitor_share: float = 0.2
    #: Fraction of clients with a disabled backup attachment to the
    #: next AP of their own contention domain (a roam-fault target —
    #: mobility without breaking decomposability, since the backup AP
    #: contends on the same channel anyway).
    roaming_share: float = 0.0
    #: Mean one-way WAN delay; per-AP values jitter +/-25% around it.
    wan_delay: float = 0.020
    ap_mode: str = "zhuge"
    queue_kind: str = "fifo"
    queue_capacity: int = 375_000
    uplink_scale: float = 0.5
    version: int = CITY_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.preset not in CITY_PRESETS:
            raise ValueError(f"unknown city preset {self.preset!r}; "
                             f"expected one of {sorted(CITY_PRESETS)}")
        if self.aps < 1:
            raise ValueError(f"need at least one AP: {self.aps}")
        if self.channels < 1:
            raise ValueError(f"channels must be positive: {self.channels}")
        if self.domain_size < 1:
            raise ValueError(
                f"domain_size must be positive: {self.domain_size}")
        if not 1 <= self.clients_min <= self.clients_max:
            raise ValueError(
                f"need 1 <= clients_min <= clients_max, got "
                f"[{self.clients_min}, {self.clients_max}]")
        for name in ("competitor_share", "roaming_share"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        if self.wan_delay < 0:
            raise ValueError(f"negative wan_delay: {self.wan_delay}")

    @classmethod
    def for_preset(cls, preset: str, **overrides) -> "CityGenSpec":
        """Preset defaults, then explicit overrides on top."""
        if preset not in CITY_PRESETS:
            raise ValueError(f"unknown city preset {preset!r}; "
                             f"expected one of {sorted(CITY_PRESETS)}")
        values = dict(CITY_PRESETS[preset])
        values.update(overrides)
        return cls(preset=preset, **values)

    # -- serialization -------------------------------------------------------

    def content_hash(self) -> str:
        """Stable digest of the generator knobs (not the output graph;
        the emitted TopologySpec hashes separately inside each
        ScenarioSpec, code fingerprint included)."""
        blob = json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- generation ----------------------------------------------------------

    def channel_of(self, ap_index: int) -> int:
        return ap_index % self.channels

    def group_of(self, ap_index: int) -> str:
        """``channel_group`` label of one AP's wireless edges."""
        channel = self.channel_of(ap_index)
        block = (ap_index // self.channels) // self.domain_size
        return f"c{channel}-d{block}"

    def build(self) -> TopologySpec:
        """Emit the city as an ordinary validated TopologySpec."""
        root = DeterministicRandom(self.seed)
        clients_rng = root.fork("city-clients")
        wan_rng = root.fork("city-wan")
        scale_rng = root.fork("city-scale")
        comp_rng = root.fork("city-competitors")
        roam_rng = root.fork("city-roam")

        nodes: list[NodeSpec] = [NodeSpec("core", "server")]
        edges: list[EdgeSpec] = []
        flows: list[FlowSpec] = []

        group_members: dict[str, list[int]] = {}
        for i in range(self.aps):
            group_members.setdefault(self.group_of(i), []).append(i)

        for i in range(self.aps):
            ap = f"ap{i:04d}"
            group = self.group_of(i)
            delay = self.wan_delay * wan_rng.uniform(0.75, 1.25)
            down_scale = scale_rng.uniform(0.75, 1.25)
            nodes.append(NodeSpec(ap, "ap", ap_mode=self.ap_mode))
            edges.append(EdgeSpec("core", ap, name=f"wan{i:04d}-dn",
                                  kind="wired", rate_bps=1e9, delay=delay))
            edges.append(EdgeSpec(ap, "core", name=f"wan{i:04d}-up",
                                  kind="wired", rate_bps=None, delay=delay))

            members = group_members[group]
            backup = None
            if len(members) > 1 and self.roaming_share > 0.0:
                backup = f"ap{members[(members.index(i) + 1) % len(members)]:04d}"

            for j in range(clients_rng.randint(self.clients_min,
                                               self.clients_max)):
                client = f"cl{i:04d}-{j}"
                nodes.append(NodeSpec(client, "client"))
                edges.append(EdgeSpec(
                    ap, client, name=f"{ap}-dn{j}", kind="wifi",
                    queue_kind=self.queue_kind,
                    queue_capacity=self.queue_capacity,
                    trace_scale=down_scale, channel_group=group))
                edges.append(EdgeSpec(
                    client, ap, name=f"{ap}-up{j}", kind="wifi",
                    trace_scale=down_scale * self.uplink_scale,
                    queue_kind="droptail", queue_capacity=200_000,
                    max_ampdu_packets=8, channel_group=group))
                if backup is not None and roam_rng.random() < self.roaming_share:
                    edges.append(EdgeSpec(
                        backup, client, name=f"bk-dn-{client}", kind="wifi",
                        queue_kind=self.queue_kind,
                        queue_capacity=self.queue_capacity,
                        trace_scale=down_scale, channel_group=group,
                        enabled=False))
                    edges.append(EdgeSpec(
                        client, backup, name=f"bk-up-{client}", kind="wifi",
                        trace_scale=down_scale * self.uplink_scale,
                        queue_kind="droptail", queue_capacity=200_000,
                        max_ampdu_packets=8, channel_group=group,
                        enabled=False))
                flows.append(FlowSpec("core", client, role="rtc",
                                      seed_label=f"enc-{client}"))
                if comp_rng.random() < self.competitor_share:
                    flows.append(FlowSpec("core", client, role="competitor"))

        return TopologySpec(nodes=tuple(nodes), edges=tuple(edges),
                            flows=tuple(flows))

    def describe(self) -> str:
        return (f"{self.preset} city: {self.aps} APs, "
                f"{self.channels} channels x {self.domain_size} APs/domain, "
                f"{self.clients_min}-{self.clients_max} clients/AP, "
                f"seed {self.seed}")
