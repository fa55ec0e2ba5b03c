"""Google Congestion Control (Carlucci et al. 2017), simplified.

GCC is WebRTC's default CCA and the RTP-side CCA of the paper's
evaluation. Two controllers combine:

* a **delay-based** controller: a trendline estimator over one-way delay
  gradients drives an over-use detector (overuse / normal / underuse)
  and an AIMD rate controller;
* a **loss-based** controller: the rate is cut when the reported loss
  ratio exceeds 10%, held between 2% and 10%, and probed upward below 2%.

The sender applies ``min(delay_based_rate, loss_based_rate)``.
"""

from __future__ import annotations

from collections import deque

from repro.cca.base import MIN_BPS, FeedbackPacketReport, RateCca

#: Samples in the trendline regression and the smoothing of its input.
TRENDLINE_WINDOW = 20
TRENDLINE_SMOOTHING = 0.9
#: WebRTC trendline constants: the threshold lives in dimensionless
#: slope units scaled by min(num_deltas, 60) * 4 and adapts within
#: [6, 600]; 12.5 is the stock starting point.
INITIAL_THRESHOLD = 12.5
K_UP = 0.0087
K_DOWN = 0.039
#: How long the signal must stay over the threshold to read overuse.
OVERUSE_TIME = 0.010


class TrendlineEstimator:
    """Least-squares slope of smoothed accumulated delay vs time."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (arrival, smoothed delay)
        self._accumulated = 0.0
        self._smoothed = 0.0
        self._first_arrival: float | None = None

    def update(self, arrival: float, delay_delta: float) -> float:
        """Add one inter-group delay variation; return the trend slope."""
        if self._first_arrival is None:
            self._first_arrival = arrival
        self._accumulated += delay_delta
        self._smoothed = (TRENDLINE_SMOOTHING * self._smoothed
                          + (1 - TRENDLINE_SMOOTHING) * self._accumulated)
        self._samples.append((arrival - self._first_arrival, self._smoothed))
        if len(self._samples) > TRENDLINE_WINDOW:
            self._samples.pop(0)
        return self._slope()

    def _slope(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        n = len(self._samples)
        # Column lists into the built-in sum: same elements, same order
        # as a generator pass, without a frame resume per sample.
        xs, ys = zip(*self._samples)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        dxs = [x - mean_x for x in xs]
        num = sum([dx * (y - mean_y) for dx, y in zip(dxs, ys)])
        den = sum([dx ** 2 for dx in dxs])
        return num / den if den > 1e-12 else 0.0


class OveruseDetector:
    """Adaptive-threshold comparison of the trend signal (K_u/K_d update)."""

    def __init__(self):
        self.threshold = INITIAL_THRESHOLD
        self._in_overuse_since: float | None = None
        self._last_update: float | None = None

    def detect(self, now: float, trend: float, num_deltas: int) -> str:
        modified = trend * min(num_deltas, 60) * 4.0
        state = "normal"
        if modified > self.threshold:
            if self._in_overuse_since is None:
                self._in_overuse_since = now
            if now - self._in_overuse_since >= OVERUSE_TIME:
                state = "overuse"
        elif modified < -self.threshold:
            self._in_overuse_since = None
            state = "underuse"
        else:
            self._in_overuse_since = None

        # Adapt the threshold toward |modified| (slowly up, faster down).
        if self._last_update is not None and abs(modified) < 4 * self.threshold:
            k = K_DOWN if abs(modified) < self.threshold else K_UP
            dt = min(now - self._last_update, 0.1)
            self.threshold += k * (abs(modified) - self.threshold) * dt * 1000
            self.threshold = min(max(self.threshold, 6.0), 600.0)
        self._last_update = now
        return state


class GccController(RateCca):
    """Combined delay-based + loss-based GCC rate controller."""

    def __init__(self, initial_bps: float = 1e6, max_bps: float = 50e6):
        super().__init__(initial_bps, max_bps)
        self.trendline = TrendlineEstimator()
        self.detector = OveruseDetector()
        self._delay_rate = initial_bps
        self._loss_rate = initial_bps
        self._recv_window = deque()  # (recv_time, size) for bitrate estimate
        self._recv_bytes = 0  # running sum of sizes in _recv_window
        self._recv_newest = float("-inf")  # running max of its recv_times
        self._rate_state = "increase"  # increase / hold / decrease
        self._num_deltas = 0
        self._last_recv_rate = initial_bps
        self._last_feedback: float | None = None
        self._last_decrease = -1.0
        self.last_signal: str | None = None  # of the last feedback
        # Packet-group state (WebRTC InterArrival).
        self._group_send_start: float | None = None
        self._group_send_end = 0.0
        self._group_arrival = 0.0
        self._prev_group_send: float | None = None
        self._prev_group_arrival = 0.0

    # -- feedback processing -------------------------------------------------

    def on_feedback(self, now: float,
                    reports: list[FeedbackPacketReport]) -> None:
        if not reports:
            return
        received = [r for r in reports if r.recv_time is not None]
        lost = len(reports) - len(received)
        loss_ratio = lost / len(reports) if reports else 0.0

        self._update_receive_rate(now, received)
        signal = self._delay_signal(now, received)
        self._update_delay_rate(now, signal)
        self._update_loss_rate(loss_ratio)
        self.target_bps = min(self._delay_rate, self._loss_rate)
        self._clamp()
        self.last_signal = signal
        self._last_feedback = now

    RECV_RATE_WINDOW = 0.5

    def _update_receive_rate(self, now: float,
                             received: list[FeedbackPacketReport]) -> None:
        """Incoming-bitrate estimate over a sliding window of arrivals.

        WebRTC's remote-bitrate estimator averages over ~0.5 s; a
        per-feedback span is meaningless when a feedback interval holds
        one or two packets.
        """
        window = self._recv_window
        for report in received:
            window.append((report.recv_time, report.size))
            self._recv_bytes += report.size
            if report.recv_time > self._recv_newest:
                self._recv_newest = report.recv_time
        if not window:
            return
        # The newest arrival is never evicted (eviction is < newest - W),
        # so the running max stays the window's max and the window stays
        # non-empty; sizes are ints, so the running total is exact.
        horizon = self._recv_newest - self.RECV_RATE_WINDOW
        while window[0][0] < horizon:
            self._recv_bytes -= window.popleft()[1]
        self._last_recv_rate = self._recv_bytes * 8 / self.RECV_RATE_WINDOW

    # WebRTC groups packets sent within a 5 ms burst window and computes
    # one delay variation per *group* (InterArrival). Per-packet deltas
    # would let a single frame burst fill the whole trendline window and
    # read its intra-burst serialization ramp as sustained overuse.
    GROUP_SPAN = 0.005

    def _delay_signal(self, now: float,
                      received: list[FeedbackPacketReport]) -> str:
        """Feed inter-group delay variations to the trendline detector."""
        state = "normal"
        for report in sorted(received, key=lambda r: r.send_time):
            group_delta = self._update_groups(report)
            if group_delta is None:
                continue
            arrival, delta = group_delta
            self._num_deltas += 1
            trend = self.trendline.update(arrival, delta)
            detected = self.detector.detect(now, trend, self._num_deltas)
            if detected == "overuse":
                return "overuse"
            state = detected
        return state

    def _update_groups(self, report: FeedbackPacketReport):
        """Accumulate ``report`` into send-time groups.

        Returns (arrival_time, inter-group delay variation) when the
        report closes the current group, else None.
        """
        if self._group_send_start is None:
            self._group_send_start = report.send_time
            self._group_send_end = report.send_time
            self._group_arrival = report.recv_time
            return None
        if report.send_time - self._group_send_start <= self.GROUP_SPAN:
            self._group_send_end = max(self._group_send_end, report.send_time)
            self._group_arrival = max(self._group_arrival, report.recv_time)
            return None
        # New group begins: emit the delta between the two previous groups.
        result = None
        if self._prev_group_send is not None:
            delta = ((self._group_arrival - self._prev_group_arrival)
                     - (self._group_send_end - self._prev_group_send))
            result = (self._group_arrival, delta)
        self._prev_group_send = self._group_send_end
        self._prev_group_arrival = self._group_arrival
        self._group_send_start = report.send_time
        self._group_send_end = report.send_time
        self._group_arrival = report.recv_time
        return result

    def _update_delay_rate(self, now: float, signal: str) -> None:
        if signal == "overuse":
            self._rate_state = "decrease"
        elif signal == "underuse":
            self._rate_state = "hold"
        else:
            self._rate_state = "increase"

        interval = 0.05
        if self._last_feedback is not None:
            interval = min(max(now - self._last_feedback, 0.01), 0.2)
        # GCC's multiplicative increase is ~8% per *response time*
        # (RTT + feedback interval), not per second (Carlucci et al. §4.4).
        response_time = 0.1

        if self._rate_state == "decrease":
            # WebRTC's AIMD applies at most one multiplicative decrease
            # per response-time window; per-feedback cuts would compound
            # within a single congestion episode (and punish feedback
            # paths, like Zhuge's, that report congestion earlier and
            # more often).
            if now - self._last_decrease >= response_time:
                self._last_decrease = now
                # A decrease must never raise the rate, even when the
                # receive-rate estimate runs above the current target.
                self._delay_rate = max(MIN_BPS,
                                       min(self._delay_rate,
                                           0.85 * self._last_recv_rate))
        elif self._rate_state == "increase":
            self._delay_rate *= 1.08 ** (interval / response_time)
            # Never run far beyond what the path demonstrably delivers.
            ceiling = 1.5 * self._last_recv_rate + 10_000
            self._delay_rate = min(self._delay_rate, ceiling)
        self._delay_rate = max(MIN_BPS, self._delay_rate)

    def _update_loss_rate(self, loss_ratio: float) -> None:
        if loss_ratio > 0.10:
            self._loss_rate *= (1 - 0.5 * loss_ratio)
        elif loss_ratio < 0.02:
            self._loss_rate *= 1.05
        self._loss_rate = max(MIN_BPS, min(self._loss_rate, self.max_bps))
