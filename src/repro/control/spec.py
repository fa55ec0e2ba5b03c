"""The control plane's one setting and its fixed policy ladder.

A :class:`ControlSpec` on a :class:`~repro.campaign.spec.ScenarioSpec`
turns the per-AP controller on; its one field, ``steering``, adds the
fleet steering daemon. Everything else — thresholds, dwell times, the
ladder below — is a constant of the module that reads it. The spec
lives in the scenario, so it participates in the content hash (a
controlled cell never aliases a static one in the campaign cache, and
controller-only never aliases controller + steering). ``control=None``
is the identity: payloads and hashes are bit-identical to pre-control
specs, pinned by the golden digests.

The state machine (wanctl pattern, ROADMAP item 3):

.. code-block:: text

   GREEN -> YELLOW -> SOFT_RED -> RED      (escalate dwell)
   RED -> SOFT_RED -> YELLOW -> GREEN      (relax dwell)

Each state maps to one :class:`ControlPolicy` of :data:`LADDER`, which
retunes the live Zhuge parameters through
:meth:`~repro.core.zhuge_ap.ZhugeAP.apply_policy`. The ladder shortens
the estimation windows and token TTLs as conditions degrade (track a
fast-changing channel, stop spending stale credits, bound the
worst-case ACK delay), clamps the downlink queue in SOFT_RED/RED (shed
stale backlog instead of draining it at a crashed link rate), and
finally falls back to the existing passthrough demotion in RED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.spec_codec import SpecCodec

GREEN = "green"
YELLOW = "yellow"
SOFT_RED = "soft_red"
RED = "red"

#: Ordered worst-last; index = severity level (0..3).
CONTROL_STATES = (GREEN, YELLOW, SOFT_RED, RED)

STATE_LEVEL = {state: level for level, state in enumerate(CONTROL_STATES)}


@dataclass(frozen=True)
class ControlPolicy:
    """One state's live Zhuge parameter set (§4/§5 knobs).

    ``window`` drives every sliding-window estimator (tx rate, dequeue
    intervals, delta history; the long-term rate window stays 10x as in
    :class:`~repro.core.fortune_teller.FortuneTeller`). ``token_ttl`` /
    ``token_bank_cap`` bound the out-of-band token bank,
    ``burst_correction`` gates the §4.2 burst discount,
    ``feedback_interval`` is the in-band TWCC cadence,
    ``max_extra_delay`` clamps the worst-case ACK delay,
    ``queue_limit`` clamps the downlink queue to that fraction of its
    native capacity (head-trimming the excess — a full queue at a
    crashed link rate is seconds of committed tail latency that no
    estimator retune can undo), ``max_sojourn`` sheds head packets
    that have already queued longer than the bound (enforced at the
    controller cadence: a packet that stale arrives too late to
    matter), and ``passthrough`` forwards everything undelayed (the
    RED fallback). The defaults are the paper's static Zhuge (GREEN).
    """

    window: float = 0.040
    token_ttl: Optional[float] = None
    token_bank_cap: int = 65536
    burst_correction: bool = True
    feedback_interval: float = 0.040
    max_extra_delay: float = 0.5
    queue_limit: Optional[float] = None
    max_sojourn: Optional[float] = None
    passthrough: bool = False


#: The fixed policy ladder: one :class:`ControlPolicy` per state.
LADDER = {
    GREEN: ControlPolicy(),
    YELLOW: ControlPolicy(window=0.020, feedback_interval=0.020,
                          token_ttl=0.5, max_extra_delay=0.25),
    SOFT_RED: ControlPolicy(window=0.010, feedback_interval=0.010,
                            token_ttl=0.2, token_bank_cap=4096,
                            burst_correction=False, max_extra_delay=0.1,
                            queue_limit=0.25, max_sojourn=0.25),
    RED: ControlPolicy(window=0.010, feedback_interval=0.010,
                       token_ttl=0.2, token_bank_cap=4096,
                       burst_correction=False, max_extra_delay=0.1,
                       queue_limit=0.1, max_sojourn=0.1,
                       passthrough=True),
}


@dataclass(frozen=True)
class ControlSpec(SpecCodec):
    """Controller on, plus fleet steering when ``steering`` is true."""

    steering: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.steering, bool):
            raise ValueError(f"steering must be a bool: {self.steering!r}")
