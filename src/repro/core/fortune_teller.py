"""Fortune Teller: per-packet delay prediction on AP arrival (§4).

``totalDelay = qLong + qShort + tx`` where

* ``qLong  = cur(qSize) / avg(txRate)`` — long-term queuing delay, with
  ``qSize = max(bytesInQueue - maxBurstSize, 0)`` (Eq. 1) discounting
  packets that will leave in the current link-layer burst;
* ``qShort = cur(qFrontWaitTime)`` — how long the head packet has
  already waited, the earliest observable signal of an ABW drop;
* ``tx     = avg(dequeueIntvl)`` — link-layer transmission delay,
  measured as the mean inter-departure interval (ignoring sub-1 ms
  intervals inside one AMPDU).

The teller attaches to a queue's departure callbacks; with FQ-CoDel it
reads the RTC flow's own sub-queue (§4.1, "Calculation with queue
disciplines").

The teller is orchestration only: a burst of departures (a single one
is the burst of one) is one ``record`` call per estimator, a prediction
is one ``queue.backlog`` read and one query per estimator.  The
arithmetic lives in :mod:`repro.core.sliding_window` and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.sliding_window import (
    DEFAULT_WINDOW,
    BurstSizeTracker,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator


@dataclass(slots=True)
class DelayPrediction:
    """The decomposed fortune of one packet."""

    q_long: float
    q_short: float
    tx: float

    @property
    def total(self) -> float:
        return self.q_long + self.q_short + self.tx


class FortuneTeller:
    """Per-packet delay predictor attached to one queue.

    Call :meth:`predict` when a downlink packet of the target flow
    arrives at the AP (before it is enqueued is fine — qSize is read
    from the queue at call time).  The constructor subscribes the teller
    to ``queue.on_departure``, so the estimators see the dequeue stream.
    """

    def __init__(self, sim: Simulator, queue: DropTailQueue,
                 window: float = DEFAULT_WINDOW,
                 burst_correction: bool = True,
                 flow=None,
                 min_estimation_interval: float = 0.0):
        self.sim = sim
        self.queue = queue
        # §4.1, "Calculation with queue disciplines": with flow-isolating
        # disciplines (fq_codel, per-UE cellular queues) the teller must
        # read the statistics of the RTC flow's own sub-queue, not the
        # aggregate. When ``flow`` is set, qSize/qFrontWaitTime come from
        # ``queue.backlog(now, flow)`` (the sub-queue on a discipline that
        # has them) and only this flow's departures feed the rate
        # estimators.
        self.flow = flow
        self.burst_correction = burst_correction
        self.tx_rate = SlidingWindowRate(window)
        # Fallback for deep stalls: when the 40 ms window saw no
        # departures at all (the channel is the problem, not the lack of
        # traffic), a 10x longer window still carries a usable drain-rate
        # estimate. Without it qLong would read zero exactly when the
        # queue is most congested.
        self.tx_rate_long = SlidingWindowRate(window * 10)
        self.dequeue_intervals = DequeueIntervalEstimator(window)
        self.burst_tracker = BurstSizeTracker()
        # §7.6 CPU optimization: with a positive interval, predictions
        # within ``min_estimation_interval`` of the previous one reuse it
        # instead of recomputing ("Zhuge could selectively update the
        # network conditions ... as long as the interval is negligible").
        self.min_estimation_interval = min_estimation_interval
        self._cached_prediction: Optional[DelayPrediction] = None
        self._cached_at = -1.0
        self.cache_hits = 0
        self.predictions_made = 0
        queue.on_departure.append(self.observe_departure if flow is None
                                  else self._observe_flow_departure)

    # -- departure-side measurement ----------------------------------------

    def _observe_flow_departure(self, packets: list,
                                queue: DropTailQueue = None) -> None:
        flow = self.flow
        matched = [packet for packet in packets if packet.flow == flow]
        if matched:
            self.observe_departure(matched)

    def observe_departure(self, packets: list, queue=None) -> None:
        """Feed one burst — departures sharing one ``dequeued_at``.

        The estimators take it as one record each (see their ``count``
        arguments for why that is exact).  Configs where same-instant
        departures are *not* inert go packet by packet
        (``min_interval <= 0``: zero intervals would enter the window;
        ``resolution <= 0``: every departure would close a burst).
        """
        if len(packets) > 1 and (self.dequeue_intervals.min_interval <= 0.0
                                 or self.burst_tracker.resolution <= 0.0):
            for packet in packets:
                self.observe_departure([packet])
            return
        head = packets[0]
        # The queue's stamp is authoritative even off the event loop.
        now = head.dequeued_at
        if now is None:
            now = self.sim._now
        count = len(packets)
        total = 0
        for packet in packets:
            total += packet.size
        self.tx_rate.record(now, total, count)
        self.tx_rate_long.record(now, total, count)
        self.dequeue_intervals.record_departure(now, count)
        self.burst_tracker.record_departure(now, total, head.size, count)

    # -- arrival-side prediction ----------------------------------------------

    def predict(self) -> DelayPrediction:
        """Predict the remaining delay of a packet arriving right now."""
        now = self.sim._now
        if (self.min_estimation_interval > 0
                and self._cached_prediction is not None
                and now - self._cached_at < self.min_estimation_interval):
            self.cache_hits += 1
            return self._cached_prediction

        # The queue read is all the discipline decides; the formula
        # below it is the same for every queue.
        q_bytes, front_wait = self.queue.backlog(now, self.flow)

        if self.burst_correction:
            # Eq. 1: packets leaving in the current burst do not queue.
            q_bytes = max(
                q_bytes - self.burst_tracker.max_burst_bytes(now), 0)
        rate = self.tx_rate.rate_bps(now)
        if rate <= 0:
            rate = self.tx_rate_long.rate_bps(now)
        q_long = (q_bytes * 8 / rate) if rate > 0 else 0.0
        tx = self.dequeue_intervals.average_interval(now)

        self.predictions_made += 1
        prediction = DelayPrediction(q_long, front_wait, tx)
        self._cached_prediction = prediction
        self._cached_at = now
        return prediction

    @property
    def last_prediction(self) -> Optional[DelayPrediction]:
        """The most recent prediction, or ``None`` before the first."""
        return self._cached_prediction

    def reset(self) -> None:
        """Wipe estimator state (AP restart / client handover)."""
        self.tx_rate.reset()
        self.tx_rate_long.reset()
        self.dequeue_intervals.reset()
        self.burst_tracker.reset()
        self._cached_prediction = None
        self._cached_at = -1.0


class NaiveQueueEstimator:
    """The strawman of §3.1: ``delay = qSize / avg(txRate)`` only.

    Kept for the estimator ablation bench: it misses sub-RTT fluctuation
    (no qShort) and over-counts burst departures (no Eq. 1 correction).
    """

    def __init__(self, sim: Simulator, queue: DropTailQueue,
                 window: float = DEFAULT_WINDOW):
        self.sim = sim
        self.queue = queue
        self.tx_rate = SlidingWindowRate(window)
        queue.on_departure.append(self._on_departure)

    def _on_departure(self, packets: list, queue: DropTailQueue) -> None:
        for packet in packets:
            now = (packet.dequeued_at if packet.dequeued_at is not None
                   else self.sim.now)
            self.tx_rate.record(now, packet.size)

    def predict(self) -> DelayPrediction:
        rate = self.tx_rate.rate_bps(self.sim.now)
        q_long = (self.queue.byte_length * 8 / rate) if rate > 0 else 0.0
        return DelayPrediction(q_long, 0.0, 0.0)
