"""Tests for the Zhuge sliding-window estimators."""

import pytest

from repro.core.sliding_window import (
    AMPDU_INTERVAL,
    BurstSizeTracker,
    DelayDeltaHistory,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.sim.random import DeterministicRandom


class TestSlidingWindowRate:
    def test_rate_of_steady_stream(self):
        win = SlidingWindowRate(window=0.040)
        # 1200 B every 10 ms = 960 kbps true rate; the 40 ms window at
        # t=0.090 spans [0.050, 0.090] and holds 5 events (both borders).
        for i in range(10):
            win.record(i * 0.010, 1200)
        assert win.rate_bps(0.090) == pytest.approx(5 * 1200 * 8 / 0.040)
        assert win.rate_bps(0.090) == pytest.approx(960e3, rel=0.3)

    def test_old_events_expire(self):
        win = SlidingWindowRate(window=0.040)
        win.record(0.0, 1200)
        assert win.rate_bps(0.100) == 0.0

    def test_empty_rate_zero(self):
        assert SlidingWindowRate().rate_bps(1.0) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingWindowRate(window=0.0)

    def test_warmup_divides_by_elapsed_not_full_window(self):
        # Regression: the seed divided by the full 40 ms window from the
        # first packet on, under-reporting txRate (and inflating qLong)
        # during warm-up. 2400 B over 10 ms of busy time is 1.92 Mbps,
        # not 2400 B / 40 ms = 480 kbps.
        win = SlidingWindowRate(window=0.040)
        win.record(0.0, 1200)
        win.record(0.010, 1200)
        assert win.rate_bps(0.010) == pytest.approx(2400 * 8 / 0.010)

    def test_warmup_floor_prevents_divide_by_zero(self):
        win = SlidingWindowRate(window=0.040)
        win.record(0.0, 1200)
        # Zero elapsed busy time: the span floors at AMPDU_INTERVAL.
        assert win.rate_bps(0.0) == pytest.approx(1200 * 8 / AMPDU_INTERVAL)

    def test_warmup_restarts_after_idle_gap(self):
        win = SlidingWindowRate(window=0.040)
        for i in range(8):
            win.record(i * 0.005, 1200)
        # Idle gap far longer than the window: the busy-time clock must
        # restart, so the next lone event reads as a fresh warm-up.
        win.record(10.0, 1200)
        assert win.rate_bps(10.0) == pytest.approx(1200 * 8 / 0.001)

    def test_full_window_unaffected_by_warmup_rule(self):
        win = SlidingWindowRate(window=0.040)
        for i in range(20):
            win.record(i * 0.010, 1200)
        # Elapsed busy time exceeds the window: same result as always.
        assert win.rate_bps(0.190) == pytest.approx(5 * 1200 * 8 / 0.040)

    def test_rate_halves_when_stream_halves(self):
        win = SlidingWindowRate(window=0.040)
        for i in range(4):
            win.record(i * 0.010, 1200)
        full = win.rate_bps(0.039)
        for i in range(4, 8):
            win.record(i * 0.020 , 1200)
        # Slower arrivals over the same window size -> lower rate.
        assert win.rate_bps(0.15) < full


class TestDequeueIntervalEstimator:
    def test_average_of_regular_departures(self):
        est = DequeueIntervalEstimator(window=0.100)
        for i in range(10):
            est.record_departure(i * 0.005)
        assert est.average_interval(0.045) == pytest.approx(0.005)

    def test_sub_millisecond_intervals_ignored(self):
        est = DequeueIntervalEstimator(window=0.100)
        # AMPDU burst: 4 departures 0.1 ms apart, then a 5 ms gap.
        times = [0.0, 0.0001, 0.0002, 0.0003, 0.0053]
        for t in times:
            est.record_departure(t)
        assert est.average_interval(0.006) == pytest.approx(0.005)

    def test_no_samples_returns_zero(self):
        est = DequeueIntervalEstimator()
        est.record_departure(0.0)
        assert est.average_interval(0.0) == 0.0

    def test_window_expiry(self):
        est = DequeueIntervalEstimator(window=0.010)
        est.record_departure(0.0)
        est.record_departure(0.005)
        assert est.average_interval(0.5) == 0.0


class TestBurstSizeTracker:
    def test_single_burst_summed(self):
        tracker = BurstSizeTracker()
        for i in range(4):
            tracker.record_departure(0.0001 * i, 1200)
        assert tracker.max_burst_bytes(0.001) == 4800

    def test_separated_departures_not_merged(self):
        tracker = BurstSizeTracker()
        tracker.record_departure(0.0, 1200)
        tracker.record_departure(0.005, 1200)
        assert tracker.max_burst_bytes(0.006) == 1200

    def test_max_over_multiple_bursts(self):
        tracker = BurstSizeTracker()
        tracker.record_departure(0.000, 1200)   # burst of 1
        tracker.record_departure(0.0100, 1200)  # burst of 3
        tracker.record_departure(0.0101, 1200)
        tracker.record_departure(0.0102, 1200)
        assert tracker.max_burst_bytes(0.02) == 3600

    def test_expiry(self):
        tracker = BurstSizeTracker(window=0.5)
        tracker.record_departure(0.0, 5000)
        tracker.record_departure(1.0, 100)
        assert tracker.max_burst_bytes(1.0) == 100

    def test_empty_zero(self):
        assert BurstSizeTracker().max_burst_bytes(0.0) == 0

    def test_stale_current_burst_expires_after_idle_gap(self):
        # Regression: the seed never expired the *current* (unclosed)
        # burst, so after an idle gap longer than the window the Eq. 1
        # correction still subtracted the ancient burst from qSize and
        # the Fortune Teller under-predicted qLong on the first packets
        # after the gap. Idle gap > window => correction decays to 0.
        tracker = BurstSizeTracker(window=1.0)
        for i in range(4):
            tracker.record_departure(0.0001 * i, 1200)  # unclosed burst
        assert tracker.max_burst_bytes(0.5) == 4800     # still in window
        assert tracker.max_burst_bytes(2.0) == 0        # gap > window

    def test_fresh_burst_after_idle_gap_not_merged_with_stale(self):
        tracker = BurstSizeTracker(window=1.0)
        tracker.record_departure(0.0, 5000)
        tracker.record_departure(5.0, 1200)   # new burst after long idle
        tracker.record_departure(5.0001, 1200)
        assert tracker.max_burst_bytes(5.0002) == 2400

    def test_max_is_monotonic_deque_front(self):
        # Decreasing burst sizes: the max must follow expiry of the
        # largest, not stick to a stale global maximum.
        tracker = BurstSizeTracker(window=0.030)
        tracker.record_departure(0.000, 4800)
        tracker.record_departure(0.010, 3600)
        tracker.record_departure(0.020, 1200)
        tracker.record_departure(0.030, 600)
        assert tracker.max_burst_bytes(0.030) == 4800
        assert tracker.max_burst_bytes(0.035) == 3600  # 4800 expired
        assert tracker.max_burst_bytes(0.045) == 1200  # 3600 expired
        assert tracker.max_burst_bytes(0.055) == 600   # current burst


class TestDelayDeltaHistory:
    def test_sample_returns_stored_delta(self):
        hist = DelayDeltaHistory(rng=DeterministicRandom(1))
        hist.push(0.0, 0.003)
        assert hist.sample(0.001) == 0.003

    def test_sample_empty_is_zero(self):
        hist = DelayDeltaHistory()
        assert hist.sample(0.0) == 0.0

    def test_negative_delta_rejected(self):
        hist = DelayDeltaHistory()
        with pytest.raises(ValueError):
            hist.push(0.0, -0.001)

    def test_expiry(self):
        hist = DelayDeltaHistory(window=0.040)
        hist.push(0.0, 0.003)
        assert hist.sample(1.0) == 0.0
        assert len(hist) == 0

    def test_mean(self):
        hist = DelayDeltaHistory()
        hist.push(0.0, 0.002)
        hist.push(0.0, 0.004)
        assert hist.mean(0.001) == pytest.approx(0.003)

    def test_sample_covers_distribution(self):
        hist = DelayDeltaHistory(window=10.0, rng=DeterministicRandom(2))
        hist.push(0.0, 0.001)
        hist.push(0.0, 0.002)
        seen = {hist.sample(0.1) for _ in range(100)}
        assert seen == {0.001, 0.002}
