"""Pure-data references to bandwidth traces.

A :class:`TraceSpec` names a trace (a calibrated synthetic family, a
constant rate, a step function, or a file) without holding the live
:class:`~repro.traces.trace.BandwidthTrace`, so it can be embedded in
content-hashed specs (:class:`~repro.campaign.spec.ScenarioSpec`,
:class:`~repro.topology.spec.EdgeSpec`), pickled across process
boundaries, and rebuilt bit-identically in any worker. It lives here,
not in :mod:`repro.campaign`, so topology edges can reference traces;
:mod:`repro.campaign.spec` re-exports it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.spec_codec import SpecCodec, omittable

from repro.traces.synthetic import (TRACE_NAMES, abc_legacy_trace,
                                    drop_steps, ethernet_trace, make_trace)
from repro.traces.trace import BandwidthTrace

#: Families :meth:`TraceSpec.family` accepts, beyond the five synthetic
#: wireless traces: wired access and the Appendix-B legacy cellular model.
EXTRA_FAMILIES = ("eth", "abc-legacy")


def _canonical_family(name: str) -> str:
    if name.lower() == "abc-legacy":
        return "abc-legacy"
    return name


@dataclass(frozen=True)
class TraceSpec(SpecCodec):
    """Reference to a bandwidth trace, buildable in any process.

    ``kind`` selects the source:

    * ``"family"`` — a calibrated synthetic generator (``W1``..``C3``,
      ``eth``, ``abc-legacy``), identified by (family, duration, seed);
    * ``"constant"`` — a flat rate (fairness/competition scenarios);
    * ``"steps"`` — ``(seconds, bps)`` segments sampled every
      ``interval`` (the bandwidth-drop microbenchmarks);
    * ``"file"`` — a JSON trace file (the hash covers the file bytes).

    A ``None`` field is left out of the payload.
    """

    kind: str
    family: Optional[str] = omittable()
    duration: float = 60.0
    seed: int = 1
    interval: Optional[float] = omittable()  # None -> the generator's default
    rate_bps: Optional[float] = omittable()
    name: Optional[str] = omittable()
    path: Optional[str] = omittable()
    steps: Optional[tuple[tuple[float, float], ...]] = omittable()

    def __post_init__(self) -> None:
        if self.kind not in ("family", "constant", "steps", "file"):
            raise ValueError(f"unknown trace spec kind {self.kind!r}")
        if self.kind == "family":
            family = _canonical_family(self.family or "")
            if family not in TRACE_NAMES + EXTRA_FAMILIES:
                raise ValueError(f"unknown trace family {self.family!r}")
            object.__setattr__(self, "family", family)
        elif self.kind == "constant" and (self.rate_bps is None
                                          or self.rate_bps <= 0):
            raise ValueError(f"constant trace needs rate_bps > 0: "
                             f"{self.rate_bps}")
        elif self.kind == "steps":
            if not self.steps:
                raise ValueError("steps trace needs (seconds, bps) steps")
            # Nested tuples whatever the source (JSON gives lists), so
            # the frozen spec stays hashable and compares equal.
            object.__setattr__(self, "steps", tuple(
                (float(seconds), float(bps)) for seconds, bps in self.steps))
        elif self.kind == "file" and not self.path:
            raise ValueError("file trace needs a path")

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_family(cls, family: str, duration: float, seed: int,
                   interval: Optional[float] = None) -> "TraceSpec":
        return cls(kind="family", family=family, duration=duration,
                   seed=seed, interval=interval)

    @classmethod
    def constant(cls, rate_bps: float, duration: float,
                 interval: float = 0.200,
                 name: str = "constant") -> "TraceSpec":
        return cls(kind="constant", rate_bps=rate_bps, duration=duration,
                   interval=interval, name=name)

    @classmethod
    def from_steps(cls, steps, interval: float = 0.010,
                   name: str = "steps") -> "TraceSpec":
        """:meth:`BandwidthTrace.from_steps` as a spec."""
        steps = tuple(steps)
        return cls(kind="steps", steps=steps,
                   duration=sum(seconds for seconds, _bps in steps),
                   interval=interval, name=name)

    @classmethod
    def drop(cls, base_bps: float, k: float, drop_at: float,
             duration: float, recover_at: Optional[float] = None,
             interval: float = 0.010) -> "TraceSpec":
        """:func:`repro.traces.synthetic.drop_trace` as a spec."""
        return cls.from_steps(
            drop_steps(base_bps, k, drop_at, duration, recover_at),
            interval, f"drop-{k:g}x")

    @classmethod
    def from_file(cls, path: str | Path) -> "TraceSpec":
        return cls(kind="file", path=str(path))

    # -- materialization -----------------------------------------------------

    def build(self) -> BandwidthTrace:
        """Generate / load the referenced trace."""
        if self.kind == "file":
            return BandwidthTrace.load(self.path)
        if self.kind == "constant":
            return BandwidthTrace.constant(self.rate_bps, self.duration,
                                           self.interval or 0.200,
                                           self.name or "constant")
        if self.kind == "steps":
            return BandwidthTrace.from_steps(self.steps,
                                             self.interval or 0.010,
                                             self.name or "steps")
        kwargs = {} if self.interval is None else {"interval": self.interval}
        if self.family == "eth":
            return ethernet_trace(duration=self.duration, seed=self.seed,
                                  **kwargs)
        if self.family == "abc-legacy":
            return abc_legacy_trace(duration=self.duration, seed=self.seed,
                                    **kwargs)
        return make_trace(self.family, duration=self.duration,
                          seed=self.seed, **kwargs)

    def label(self) -> str:
        if self.kind == "family":
            return self.family
        if self.kind in ("constant", "steps"):
            return self.name or self.kind
        return Path(self.path).stem

    # -- serialization -------------------------------------------------------

    def _hash_payload(self) -> dict:
        payload = self.as_dict()
        if self.kind == "file":
            payload["file_sha256"] = hashlib.sha256(
                Path(self.path).read_bytes()).hexdigest()
        return payload
