"""Out-of-band Feedback Updater: delaying ACKs (§5.2, Algorithms 1-2).

On each downlink data-packet arrival, the updater computes the delay
delta against the previous packet's predicted total delay. Non-negative
deltas enter a sliding-window history; negative deltas are banked as
*tokens* (an ACK cannot be delayed by a negative amount).

On each uplink feedback-packet arrival, the updater:

1. clamps the earliest send time to the previous ACK's send time
   (order preservation),
2. samples one delta from the recent-delta distribution
   (distributional equivalence, not per-packet mapping),
3. spends banked tokens against the sampled delay so the *average*
   injected delay matches the average predicted delta,
4. schedules the ACK's forwarding after the resulting delay.

The updater never parses transport payloads — it identifies flows by
five-tuple only, so it works for encrypted QUIC exactly as for TCP.

This module is orchestration only: ``on_data_packet`` is predict →
delta → :meth:`~OutOfBandFeedbackUpdater.bank`, ``ack_delay`` is token
expiry → ``DelayDeltaHistory.sample`` → ``TokenBank.spend`` → clamp,
and ``on_feedback_packet`` calls ``ack_delay``.  The window and token
arithmetic lives in :mod:`repro.core.sliding_window` and nowhere else.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Optional

from repro.core.fortune_teller import FortuneTeller
from repro.core.sliding_window import (DEFAULT_WINDOW, DelayDeltaHistory,
                                       TokenBank)
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom


#: The uplink kinds the updater delays (hoisted: the per-ACK membership
#: test must not rebuild the tuple of enum attributes per packet; a
#: tuple, not a set: identity comparison, no ``Enum.__hash__`` frame).
_FEEDBACK_KINDS = (PacketKind.ACK, PacketKind.RTCP_TWCC,
                   PacketKind.RTCP_OTHER)


class FeedbackKind(enum.Enum):
    """Table 2's protocol classification."""

    OUT_OF_BAND = "out-of-band"  # TCP, QUIC: ACK arrival timing is the signal
    IN_BAND = "in-band"          # RTP/RTCP: feedback payload carries timings


class OutOfBandFeedbackUpdater:
    """Delays uplink ACKs to carry predicted downlink delay deltas."""

    def __init__(self, sim: Simulator, fortune_teller: FortuneTeller,
                 rng: Optional[DeterministicRandom] = None,
                 window: float = DEFAULT_WINDOW,
                 use_tokens: bool = True,
                 distributional: bool = True,
                 max_extra_delay: float = 0.5):
        self.sim = sim
        self.fortune_teller = fortune_teller
        self.window = window
        self.use_tokens = use_tokens
        self.distributional = distributional
        self.max_extra_delay = max_extra_delay
        self.delta_history = DelayDeltaHistory(
            window, rng or DeterministicRandom(0))
        # Bounded token FIFO; its total is taken on read. The default
        # cap (65536) never binds in realistic traces — it is a memory
        # backstop against pathological monotone-improving stretches.
        self.token_history = TokenBank()
        self._last_total_delay: Optional[float] = None
        self._last_sent_time = 0.0
        #: Degraded-mode switch: while True the updater stops sampling
        #: and banking entirely — ACKs are forwarded with zero extra
        #: delay (order preservation only). Flipped by the AP watchdog.
        self.passthrough = False
        # Non-distributional mode: (banked_at, delta) pairs. Entries age
        # out after ``window`` — when ACKs arrive slower than data
        # packets (delayed-ACK TCP: 1 ACK per 2 segments), the queue
        # would otherwise grow without bound over a long trace, and a
        # delta banked seconds ago no longer describes current downlink
        # delay anyway.
        self._pending_deltas: deque[tuple[float, float]] = deque()
        self.pending_deltas_expired = 0
        self.acks_delayed = 0
        self.total_injected_delay = 0.0
        #: Tracing probe (:class:`repro.obs.bus.TraceBus`); ``None`` =
        #: disabled. Every probe site reads it exactly once.
        self.trace = None
        self._track = "ap"
        #: Where held and passed-through feedback goes (the AP's
        #: uplink out).  Held ACKs are released by a
        #: :class:`~repro.sim.engine.TimedRun` instead of one scheduler
        #: event each — one sentinel per busy period, one dispatch per
        #: burst.
        self.release_forward: Optional[Callable[[Packet], None]] = None
        self._release_run = None

    def enable_trace(self, bus, track: str = "ap") -> None:
        self.trace = bus
        self._track = track

    # -- Algorithm 1: on downlink data packets --------------------------------

    def on_data_packet(self, packet: Packet) -> float:
        """Predict the packet's fortune; bank the delta. Returns the delta."""
        prediction = self.fortune_teller.predict()
        tr = self.trace
        if tr is not None:
            tr.ap_prediction(self._track, packet, prediction)
        # ``prediction.total`` without the property call.
        current = prediction.q_long + prediction.q_short + prediction.tx
        last = self._last_total_delay
        self._last_total_delay = current
        if last is None:
            return 0.0
        delta = current - last
        # Degraded: keep observing (so health can recover) but bank
        # nothing — stale predictions must not shape future ACKs.
        if not self.passthrough:
            self.bank(self.sim.now, delta)
        return delta

    def bank(self, now: float, delta: float) -> None:
        """Algorithm 1's banking rule for one delay delta.

        A non-negative delta joins the recent-delta distribution (and,
        in the per-packet ablation mode, the one-to-one pending queue);
        a negative one is banked as a token, since an ACK cannot be
        delayed by a negative amount.
        """
        banked = False
        if delta >= 0:
            self.delta_history.push(now, delta)
            if not self.distributional:
                self._pending_deltas.append((now, delta))
                self._expire_pending(now)
        elif self.use_tokens:
            self.token_history.append(-delta, now)
            banked = True
        tr = self.trace
        if tr is not None:
            tr.ap_delta(self._track, delta, banked=banked)
            if banked:
                tr.ap_tokens(self._track, self.outstanding_tokens)

    def _expire_pending(self, now: float) -> None:
        horizon = now - self.window
        while self._pending_deltas and self._pending_deltas[0][0] < horizon:
            self._pending_deltas.popleft()
            self.pending_deltas_expired += 1

    @property
    def pending_delta_count(self) -> int:
        return len(self._pending_deltas)

    # -- Algorithm 2: on uplink feedback packets ---------------------------------

    def ack_delay(self, arrival_time: float) -> float:
        """Compute how long to hold the ACK that just arrived.

        Three goals from §5.2, reconciled:

        * *order preservation* — release times never go backwards; an ACK
          arriving while the previous one is still held waits for it;
        * *no RTT overestimation* — the ordering wait is NOT fed back
          into the delay ledger, so one large sampled delta delays its
          immediate successors but does not ratchet all later ACKs
          (tokens additionally cancel sampled deltas);
        * *distributional equivalence* — the extra delay is sampled from
          the recent downlink delay-delta distribution.
        """
        # Degraded: no injected delay; only order preservation so
        # release times stay monotone across the demote boundary.
        sampled = extra = 0.0
        if not self.passthrough:
            bank = self.token_history
            if bank.ttl is not None:
                bank.expire(arrival_time)
            if self.distributional:
                extra = self.delta_history.sample(arrival_time)
            else:
                self._expire_pending(arrival_time)
                if self._pending_deltas:
                    _, extra = self._pending_deltas.popleft()
            sampled = extra
            if self.use_tokens and extra > 0:
                extra = bank.spend(extra)
            extra = min(extra, self.max_extra_delay)
        release = max(arrival_time + extra, self._last_sent_time)
        self._last_sent_time = release
        tr = self.trace
        if tr is not None:
            tr.ap_ack_delay(self._track, sampled, release - arrival_time,
                            self.outstanding_tokens)
        return release - arrival_time

    def on_feedback_packet(self, packet: Packet) -> None:
        """Hold the ACK for the computed delay, then forward it."""
        forward = self.release_forward
        if packet.kind not in _FEEDBACK_KINDS:
            forward(packet)
            return
        now = self.sim.now
        delay = self.ack_delay(now)
        self.acks_delayed += 1
        self.total_injected_delay += delay
        if delay <= 0:
            forward(packet)
            return
        run = self._release_run
        if run is None:
            run = self._release_run = self.sim.timed_run(self._release)
        # ``now + delay``, as ``schedule`` computes it.  The clamp keeps
        # releases monotone, but ``arrival + (release - arrival)`` can
        # regress by an ulp; a run refuses that, so those stragglers are
        # scheduled as events (both assign their seq at ACK time, so the
        # two are tie-order identical).
        time = now + delay
        times = run._times
        if times and time < times[-1]:
            self.sim.schedule(delay, lambda p=packet: forward(p))
        else:
            run.extend(time, [packet])

    def _release(self, packets: list) -> None:
        """The release run's dispatcher: a burst of held ACKs, in order
        (same-instant releases with nothing scheduled between them join
        one burst, :meth:`~repro.sim.engine.TimedRun.extend`)."""
        forward = self.release_forward
        for packet in packets:
            forward(packet)

    @property
    def outstanding_tokens(self) -> float:
        return self.token_history.total

    @property
    def release_floor(self) -> float:
        """The monotone release clamp (last feedback release instant)."""
        return self._last_sent_time

    def adopt_release_floor(self, floor: float) -> None:
        """Raise the clamp to ``floor`` — used when an inter-AP handoff
        carries the ordering constraint from the old AP's updater."""
        if floor > self._last_sent_time:
            self._last_sent_time = floor

    def retune(self, policy) -> None:
        """Adopt a :class:`~repro.control.spec.ControlPolicy`'s window,
        delay cap and token-bank limits."""
        self.window = policy.window
        self.delta_history.window = policy.window
        self.max_extra_delay = policy.max_extra_delay
        self.token_history.set_limits(policy.token_bank_cap,
                                      policy.token_ttl)

    def stop(self) -> None:
        """Nothing to stop: held ACKs still release on their own run."""

    def reset_state(self) -> None:
        """Forget the delay ledger (AP restart / client handover).

        ``_last_sent_time`` is deliberately preserved: it is an output
        ordering constraint, not estimator state — resetting it could
        release a post-reset ACK before a pre-reset one.
        """
        self.delta_history.clear()
        self.token_history.clear()
        self._pending_deltas.clear()
        self._last_total_delay = None
