"""Pure-data scenario specifications: the one description of a run.

A :class:`ScenarioSpec` describes one experiment — protocol stack, AP
mode, queue, timing, and the bandwidth trace, *referenced* as a
:class:`TraceSpec` (family/seed/duration, a constant rate, step
segments, or a file path) rather than held as a live
:class:`BandwidthTrace`. Every field is a plain JSON value and the whole
spec has a stable content hash, so specs are safe to pickle across
process boundaries, to store in campaign manifests, and to use as
content-addressed cache keys. :class:`repro.topology.builder.TopologyBuilder`
takes a spec, builds its trace and graph, and runs it.

The content hash covers the spec *and* a fingerprint of the ``repro``
source tree, so cached results are invalidated automatically whenever
the simulator code changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Optional

from repro.control.spec import ControlSpec
from repro.faults.spec import FaultPlan
from repro.obs.session import TraceConfig
from repro.topology.spec import (AP_MODES, APPS, LINK_KINDS, PROTOCOLS,
                                 QUEUE_KINDS, TopologySpec)
# TraceSpec moved to repro.traces.spec (the topology layer references
# traces per edge); re-exported here unchanged for existing importers.
from repro.traces.spec import EXTRA_FAMILIES, TraceSpec  # noqa: F401

#: Bumping this invalidates every cache entry regardless of code changes
#: (e.g. when the summary schema itself evolves).
SPEC_SCHEMA_VERSION = 1

#: Spec fields holding a nested pure-data spec, in payload order.
_NESTED = (("trace_config", TraceConfig), ("faults", FaultPlan),
           ("topology", TopologySpec), ("control", ControlSpec))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file, for cache invalidation.

    Computed once per process; any edit to the simulator changes the
    fingerprint, which changes every spec hash, which makes every old
    cache entry unreachable (stale entries are left on disk — they are
    content-addressed, so they can never be returned for new code).
    """
    root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one experiment run needs, as plain data.

    ``topology=None`` runs the paper's single-AP chain
    (:func:`repro.topology.spec.single_ap_topology`); ``trace`` is
    built once, by the builder, in whichever process runs the cell.
    """

    trace: TraceSpec
    protocol: str = "rtp"          # rtp | tcp | quic
    cca: str = "gcc"               # rtp: gcc; tcp: copa/bbr/cubic/abc
    ap_mode: str = "none"          # none | zhuge | fastack | abc
    queue_kind: str = "fifo"       # droptail | fifo | codel | fq_codel
    duration: float = 60.0
    seed: int = 1
    wan_delay: float = 0.020       # one-way WAN latency (sender <-> AP)
    uplink_scale: float = 0.5      # uplink wireless capacity vs trace
    queue_capacity: int = 375_000  # ~1 Mbit of buffer (bufferbloat-ish)
    fps: float = 24.0
    initial_bps: float = 1e6
    max_bps: float = 4e6           # encoder cap (paper: ~2 Mbps avg video)
    competitors: int = 0           # CUBIC bulk flows sharing the AP queue
    competitor_period: Optional[float] = None  # scp on/off period (§7.5)
    interferers: int = 0           # stations on other APs, same channel
    mcs_switch_period: Optional[float] = None  # §7.5 `mcs` scenario
    record_predictions: bool = False
    app: str = "video"             # video | bulk (Fig. 4 CCA study)
    paced_sender: bool = False     # spread frame packets (burstiness ablation)
    link_kind: str = "wifi"        # wifi (AMPDU bursts) | cellular (TTI slots)
    rtc_flows: int = 1             # fairness experiments use 2
    zhuge_flow_mask: Optional[tuple[bool, ...]] = None  # which RTC flows get Zhuge
    warmup: float = 5.0            # metrics ignore the first seconds
    #: Event tracing (repro.obs). Part of the spec, therefore part of
    #: the content hash: a traced cell never aliases an untraced one in
    #: the result cache.
    trace_config: Optional[TraceConfig] = None
    #: Fault injection (repro.faults). Also part of the content hash: a
    #: faulted cell never aliases a healthy one. An empty plan is
    #: normalized to ``None`` so it hashes and behaves identically to
    #: no plan at all.
    faults: Optional[FaultPlan] = None
    #: Explicit experiment graph (repro.topology). ``None`` — every
    #: pre-topology spec — means the canonical single-AP graph derived
    #: from the fields above. Omitted from the payload when ``None`` so
    #: legacy specs keep their historical content hashes.
    topology: Optional[TopologySpec] = None
    #: Adaptive control plane (repro.control). ``None`` — the static
    #: configuration every pre-control spec ran — is omitted from the
    #: payload so legacy specs keep their historical content hashes; a
    #: spec with neither controller nor steering normalizes to ``None``.
    control: Optional[ControlSpec] = None

    def __post_init__(self) -> None:
        for name, allowed in (("protocol", PROTOCOLS), ("ap_mode", AP_MODES),
                              ("queue_kind", QUEUE_KINDS),
                              ("link_kind", LINK_KINDS), ("app", APPS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"expected one of {allowed}")
        if self.zhuge_flow_mask is not None:
            object.__setattr__(self, "zhuge_flow_mask",
                               tuple(bool(b) for b in self.zhuge_flow_mask))
        if self.faults is not None and not self.faults.faults:
            object.__setattr__(self, "faults", None)
        if self.control is not None and not self.control.enabled:
            object.__setattr__(self, "control", None)

    def to_config(self) -> "ScenarioSpec":
        """The spec itself. Pinned by ``benchmarks/ledger/workloads.py``,
        which hands the result to :class:`TopologyBuilder`; nothing else
        calls it."""
        return self

    def label(self) -> str:
        """Short human-readable cell label for progress lines."""
        parts = [self.trace.label(), f"{self.protocol}/{self.cca}",
                 f"ap={self.ap_mode}", f"seed={self.seed}"]
        return " ".join(parts)

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "trace"}
        if payload["zhuge_flow_mask"] is not None:
            payload["zhuge_flow_mask"] = list(payload["zhuge_flow_mask"])
        for name, _nested in _NESTED:
            if payload[name] is not None:
                payload[name] = payload[name].as_dict()
            elif name != "trace_config":
                # Absent, so a spec without faults, topology or control
                # hashes exactly like one from before those layers.
                del payload[name]
        payload["trace"] = self.trace.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        payload = dict(payload)
        payload["trace"] = TraceSpec.from_dict(payload["trace"])
        for name, nested in _NESTED:
            if payload.get(name) is not None:
                payload[name] = nested.from_dict(payload[name])
        return cls(**payload)

    def content_hash(self) -> str:
        """Stable digest of (schema, code fingerprint, spec contents)."""
        payload = self.as_dict()
        payload["trace"] = self.trace._hash_payload()
        blob = json.dumps({"schema": SPEC_SCHEMA_VERSION,
                           "code": code_fingerprint(),
                           "spec": payload},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
