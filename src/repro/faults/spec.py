"""Pure-data fault plans.

A :class:`FaultPlan` is the declarative half of the fault layer: a list
of typed :class:`FaultSpec` windows plus the watchdog switch, all
plain JSON values. It lives inside
:class:`~repro.campaign.spec.ScenarioSpec`, so it participates in the
spec content hash (a faulted cell never aliases a healthy one in the
campaign cache) and survives pickling across worker processes.

Fault kinds:

========== =============================================================
kind       meaning
========== =============================================================
blackout   the wireless link stops serving for ``duration`` seconds
           (deep fade, radar DFS hit, channel switch); queued packets
           wait, arriving packets keep queueing.
rate_crash the channel rate is scaled by ``magnitude`` (default 0.05)
           for ``duration`` seconds — an MCS crash to the lowest index.
loss_burst each delivered packet is independently dropped with
           probability ``magnitude`` (default 0.5) for ``duration``
           seconds, on the downlink data path and/or the uplink ACK
           path.
ap_reset   the AP's estimator state is reset at ``start`` (AP restart /
           client handover): Fortune-Teller windows, token banks, and
           delta ledgers are forgotten. Instantaneous; no effect on
           non-Zhuge APs (they carry no state).
roam       the client roams: both link directions block for
           ``duration``, in-flight queue contents are flushed (counted
           as drops), and the AP state resets when the client
           re-associates at the end of the window.
========== =============================================================

Overlapping windows of the same kind on the same target are
last-writer-wins (the later ``end`` restores the healthy state); plans
that need stacked faults should use disjoint windows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.spec_codec import SpecCodec, omittable

FAULT_KINDS = ("blackout", "rate_crash", "loss_burst", "ap_reset", "roam")

#: Kinds with a [start, start+duration) active window; ``ap_reset`` is
#: instantaneous.
WINDOWED_KINDS = ("blackout", "rate_crash", "loss_burst", "roam")

TARGETS = ("down", "up", "both")

#: DSL shorthand aliases accepted by :meth:`FaultPlan.parse`.
KIND_ALIASES = {"loss": "loss_burst", "crash": "rate_crash",
                "reset": "ap_reset"}

_DEFAULT_MAGNITUDE = {"rate_crash": 0.05, "loss_burst": 0.5}
_DEFAULT_TARGET = {"blackout": "both", "roam": "both"}

_FAULT_RE = re.compile(
    r"^(?P<kind>[a-z_]+)@(?P<start>[0-9.]+)"
    r"(?:\+(?P<duration>[0-9.]+))?"
    r"(?:\*(?P<magnitude>[0-9.]+))?$")


@dataclass(frozen=True)
class FaultSpec(SpecCodec):
    """One typed fault window.

    ``magnitude`` is kind-specific: the rate scale for ``rate_crash``,
    the per-packet drop probability for ``loss_burst`` (filled with the
    kind's default when omitted, unused otherwise). ``target`` selects
    the affected direction (``ap_reset`` ignores it).
    """

    kind: str
    start: float
    duration: float = 0.0
    magnitude: Optional[float] = omittable()
    target: str = ""
    #: Topology-aware targeting (multi-AP graphs). ``edge`` aims the
    #: fault at one named edge instead of the legacy down/up pair;
    #: ``node``/``to`` make ``roam`` a real handoff (the named client
    #: detaches and re-attaches to the ``to`` AP) and let ``ap_reset``
    #: pick one AP. All three are empty on legacy single-AP plans and
    #: omitted from the payload, so old plans hash identically.
    edge: str = omittable("")
    node: str = omittable("")
    to: str = omittable("")

    def __post_init__(self) -> None:
        kind = KIND_ALIASES.get(self.kind, self.kind)
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        object.__setattr__(self, "kind", kind)
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0: {self.start}")
        if kind in WINDOWED_KINDS:
            if self.duration <= 0:
                raise ValueError(f"{kind} fault needs duration > 0: "
                                 f"{self.duration}")
        else:
            object.__setattr__(self, "duration", 0.0)
        magnitude = self.magnitude
        if magnitude is None:
            magnitude = _DEFAULT_MAGNITUDE.get(kind)
        elif kind == "loss_burst" and not 0 < magnitude <= 1:
            raise ValueError(f"loss probability must be in (0, 1]: "
                             f"{magnitude}")
        elif kind == "rate_crash" and not 0 < magnitude < 1:
            raise ValueError(f"rate-crash scale must be in (0, 1): "
                             f"{magnitude}")
        elif kind not in _DEFAULT_MAGNITUDE:
            magnitude = None  # meaningless for this kind; normalize away
        object.__setattr__(self, "magnitude", magnitude)
        target = self.target or _DEFAULT_TARGET.get(kind, "down")
        if target not in TARGETS:
            raise ValueError(f"unknown fault target {self.target!r}; "
                             f"expected one of {TARGETS}")
        object.__setattr__(self, "target", target)
        if self.to and kind != "roam":
            raise ValueError(f"only roam faults take a ':to' AP "
                             f"(got {self.to!r} on {kind})")
        if kind == "roam" and self.node and not self.to:
            raise ValueError(f"roam fault for node {self.node!r} needs a "
                             f"target AP (node:ap)")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FaultPlan(SpecCodec):
    """A scenario's full fault schedule plus degradation policy.

    ``seed`` drives the injector's stochastic faults (loss bursts) via
    the usual forked deterministic streams, independent of the
    scenario seed. ``watchdog_enabled`` gates the AP-side health
    watchdog (the no-watchdog ablation keeps Zhuge engaged through the
    fault).

    A plan with no faults is the identity: :class:`ScenarioSpec`
    normalizes it to ``None``, so an empty plan hashes and behaves
    exactly like no plan at all.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 1
    watchdog_enabled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- DSL -----------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 1,
              watchdog_enabled: bool = True) -> "FaultPlan":
        """Parse the compact CLI syntax.

        A comma list of ``kind@start[+duration][*magnitude][/target]``::

            blackout@10+1,reset@11
            loss@5+2*0.3/up,crash@20+4*0.1

        ``/target`` accepts the legacy directions (``down``/``up``/
        ``both``), a topology edge name (``/a-down``), a node name
        (``/ap-b`` for ``ap_reset``), or — for ``roam`` — a
        ``client:new-ap`` handoff pair (``roam@5+0.4/client:ap-b``).

        Aliases: ``loss`` -> loss_burst, ``crash`` -> rate_crash,
        ``reset`` -> ap_reset.
        """
        faults = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            body, _, target = part.partition("/")
            match = _FAULT_RE.match(body)
            if match is None:
                raise ValueError(
                    f"cannot parse fault {part!r}; expected "
                    f"kind@start[+duration][*magnitude][/target]")
            duration = match.group("duration")
            magnitude = match.group("magnitude")
            target = target.strip()
            edge = node = to = ""
            if ":" in target:
                node, _, to = target.partition(":")
                target = ""
            elif target and target not in TARGETS:
                kind = KIND_ALIASES.get(match.group("kind"),
                                        match.group("kind"))
                if kind == "ap_reset":
                    node, target = target, ""
                else:
                    edge, target = target, ""
            faults.append(FaultSpec(
                kind=match.group("kind"),
                start=float(match.group("start")),
                duration=float(duration) if duration else 0.0,
                magnitude=float(magnitude) if magnitude else None,
                target=target, edge=edge, node=node, to=to))
        return cls(faults=tuple(faults), seed=seed,
                   watchdog_enabled=watchdog_enabled)
