"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sliding_window import (
    BurstSizeTracker,
    DelayDeltaHistory,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.core.feedback_updater import OutOfBandFeedbackUpdater
from repro.core.fortune_teller import FortuneTeller
from repro.metrics.stats import (
    ccdf_points,
    cdf_points,
    jain_fairness,
    percentile,
    tail_fraction,
)
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.traces.trace import BandwidthTrace

positive_floats = st.floats(min_value=1e-6, max_value=1e9,
                            allow_nan=False, allow_infinity=False)
sample_lists = st.lists(st.floats(min_value=0.0, max_value=1e6,
                                  allow_nan=False), min_size=1, max_size=200)


class TestStatsProperties:
    @given(sample_lists, st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, samples, q):
        value = percentile(samples, q)
        assert min(samples) <= value <= max(samples)

    @given(sample_lists)
    def test_percentile_monotone_in_q(self, samples):
        assert percentile(samples, 25) <= percentile(samples, 75)

    @given(sample_lists, st.floats(min_value=0, max_value=1e6))
    def test_tail_fraction_bounds(self, samples, threshold):
        fraction = tail_fraction(samples, threshold)
        assert 0.0 <= fraction <= 1.0

    @given(sample_lists, st.floats(min_value=0, max_value=1e6))
    def test_tail_above_below_partition(self, samples, threshold):
        above = tail_fraction(samples, threshold, above=True)
        below = tail_fraction(samples, threshold, above=False)
        equal = sum(1 for s in samples if s == threshold) / len(samples)
        assert abs(above + below + equal - 1.0) < 1e-9

    @given(sample_lists)
    def test_cdf_monotone(self, samples):
        points = cdf_points(samples)
        probs = [p for _, p in points]
        values = [v for v, _ in points]
        assert probs == sorted(probs)
        assert values == sorted(values)

    @given(sample_lists)
    def test_ccdf_probabilities_valid(self, samples):
        for _, p in ccdf_points(samples):
            assert -1e-9 <= p <= 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_jain_fairness_bounds(self, rates):
        index = jain_fairness(rates)
        assert 0.0 < index <= 1.0 + 1e-9


class TestSlidingWindowProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=10),
                              st.integers(min_value=1, max_value=10_000)),
                    min_size=1, max_size=100))
    def test_rate_never_negative(self, events):
        win = SlidingWindowRate(window=0.1)
        for t, size in sorted(events):
            win.record(t, size)
        assert win.rate_bps(10.0) >= 0.0

    @given(st.lists(st.floats(min_value=0, max_value=5),
                    min_size=2, max_size=100))
    def test_interval_estimator_nonnegative(self, times):
        est = DequeueIntervalEstimator()
        for t in sorted(times):
            est.record_departure(t)
        assert est.average_interval(max(times)) >= 0.0

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=2),
                              st.integers(min_value=1, max_value=5_000)),
                    min_size=1, max_size=100))
    def test_burst_tracker_at_least_single_packet(self, departures):
        tracker = BurstSizeTracker()
        departures = sorted(departures)
        for t, size in departures:
            tracker.record_departure(t, size)
        last_t = departures[-1][0]
        max_single = max(size for _, size in departures
                         if last_t - 1.0 <= _)
        assert tracker.max_burst_bytes(last_t) >= max_single

    @given(st.lists(st.floats(min_value=0.0, max_value=0.5),
                    min_size=1, max_size=100),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_delta_history_sample_from_pushed(self, deltas, seed):
        hist = DelayDeltaHistory(window=100.0,
                                 rng=DeterministicRandom(seed))
        for delta in deltas:
            hist.push(0.0, delta)
        assert hist.sample(0.0) in deltas


class TestFeedbackUpdaterProperties:
    @given(st.lists(st.floats(min_value=-0.05, max_value=0.05,
                              allow_nan=False), min_size=1, max_size=300),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50)
    def test_ack_delay_always_nonnegative_and_ordered(self, deltas, seed):
        """Whatever delta stream arrives, ACK release times never go
        backwards and injected delays are never negative."""
        sim = Simulator()
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           rng=DeterministicRandom(seed))
        t = 0.0
        last_release = 0.0
        for delta in deltas:
            updater.bank(t, delta)
            delay = updater.ack_delay(t)
            assert delay >= 0.0
            release = t + delay
            assert release >= last_release - 1e-12
            last_release = release
            t += 0.001


class TestQueueProperties:
    @given(st.lists(st.integers(min_value=1, max_value=2000),
                    min_size=1, max_size=100))
    def test_byte_accounting_consistent(self, sizes):
        queue = DropTailQueue(capacity_bytes=50_000)
        flow = FiveTuple("a", "b", 1, 2)
        for size in sizes:
            queue.enqueue(Packet(flow, size), 0.0)
        total_in = queue.stats.bytes_enqueued
        drained = 0
        while not queue.is_empty:
            packet = queue.dequeue(1.0)
            drained += packet.size
        assert drained == total_in
        assert queue.byte_length == 0
        assert (queue.stats.bytes_enqueued + queue.stats.bytes_dropped
                == sum(sizes))

    @given(st.lists(st.integers(min_value=1, max_value=2000),
                    min_size=1, max_size=100))
    def test_fifo_order_preserved(self, sizes):
        queue = DropTailQueue(capacity_bytes=10**9)
        flow = FiveTuple("a", "b", 1, 2)
        for i, size in enumerate(sizes):
            queue.enqueue(Packet(flow, size, seq=i), 0.0)
        seqs = []
        while not queue.is_empty:
            seqs.append(queue.dequeue(1.0).seq)
        assert seqs == sorted(seqs)


class TestTraceProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0.001, max_value=1.0))
    def test_rate_at_returns_member(self, rates, interval):
        trace = BandwidthTrace(rates, interval)
        assert trace.rate_at(0.123 * trace.duration) in rates

    @given(st.lists(st.floats(min_value=1, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=100))
    def test_windows_mean_preserves_total(self, rates):
        trace = BandwidthTrace(rates, 0.1)
        windows = trace.windows(0.1)  # window == sample interval
        assert len(windows) == len(rates)
        for window, rate in zip(windows, rates):
            assert abs(window - rate) < 1e-6

    @given(st.lists(st.floats(min_value=1, max_value=1e9,
                              allow_nan=False), min_size=2, max_size=100),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_preserves_reduction_ratios(self, rates, factor):
        from repro.traces.abw import abw_reduction_ratios
        trace = BandwidthTrace(rates, 0.04)
        scaled = trace.scaled(factor)
        original = abw_reduction_ratios(trace, floor_bps=0.001)
        after = abw_reduction_ratios(scaled, floor_bps=0.001 * factor)
        assert len(original) == len(after)
        for a, b in zip(original, after):
            assert abs(a - b) < 1e-6


class TestFrameTrackerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=20),
                    min_size=1, max_size=100))
    def test_decode_count_never_exceeds_frames(self, frame_ids):
        from repro.app.video import _FrameTracker
        tracker = _FrameTracker()
        now = 0.0
        for frame_id in frame_ids:
            tracker.on_packet(frame_id, now, 1, now + 0.01)
            now += 0.01
        assert tracker.recorder.count <= len(set(frame_ids))

    @given(st.permutations(list(range(10))))
    def test_all_frames_decode_regardless_of_order(self, order):
        from repro.app.video import _FrameTracker
        tracker = _FrameTracker()
        for i, frame_id in enumerate(order):
            tracker.on_packet(frame_id, 0.0, 1, 0.01 + i * 0.001)
        assert tracker.recorder.count == 10
