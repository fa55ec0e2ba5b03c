"""Tests for statistics and recorders."""

import pytest

from repro.metrics.recorder import (
    FrameRecorder,
    RateRecorder,
    RttRecorder,
    degradation_duration,
)
from repro.metrics.stats import (
    ccdf_points,
    cdf_points,
    jain_fairness,
    mean,
    percentile,
    tail_fraction,
)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        samples = [5, 1, 3]
        assert percentile(samples, 0) == 1
        assert percentile(samples, 100) == 5

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestTailFraction:
    def test_above(self):
        assert tail_fraction([1, 2, 3, 4], 2.5) == 0.5

    def test_below(self):
        assert tail_fraction([1, 2, 3, 4], 2.5, above=False) == 0.5

    def test_strict_comparison(self):
        assert tail_fraction([2, 2, 2], 2) == 0.0

    def test_empty_is_zero(self):
        assert tail_fraction([], 1.0) == 0.0


class TestCdf:
    def test_cdf_monotone(self):
        points = cdf_points([3, 1, 2, 5, 4])
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    def test_ccdf_complement(self):
        points = ccdf_points([1, 2, 3, 4])
        assert points[-1][1] == pytest.approx(0.0)

    def test_empty(self):
        assert cdf_points([]) == []

    def test_subsampling_keeps_max(self):
        samples = list(range(1000))
        points = cdf_points(samples, points=10)
        assert points[-1][0] == 999

    def test_duplicated_max_closes_at_one(self):
        # Regression: subsampling [1, 2, 3, 3] at step 2 emits ranks 0
        # and 2; rank 2's *value* equals the max, so the old value-based
        # check skipped the closing point and the CDF ended at 0.75 —
        # a phantom CCDF tail with P(X > max) = 0.25.
        points = cdf_points([1, 2, 3, 3], points=2)
        assert points[-1] == (3, 1.0)
        ccdf = ccdf_points([1, 2, 3, 3], points=2)
        assert ccdf[-1][1] == 0.0

    def test_duplicated_max_closes_at_one_large(self):
        samples = [0.001] * 999 + [0.002]
        points = cdf_points(samples, points=10)
        assert points[-1] == (0.002, 1.0)


class TestFairness:
    def test_equal_rates_fair(self):
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)

    def test_unequal_rates_less_fair(self):
        assert jain_fairness([10, 1]) < 0.7

    def test_zero_rates(self):
        assert jain_fairness([0, 0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_fairness([])


class TestMean:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestRttRecorder:
    def test_tail_ratio(self):
        rec = RttRecorder()
        for i, rtt in enumerate([0.05, 0.1, 0.3, 0.5]):
            rec.record(i * 1.0, rtt)
        assert rec.tail_ratio(0.2) == 0.5

    def test_negative_rtt_rejected(self):
        rec = RttRecorder()
        with pytest.raises(ValueError):
            rec.record(0.0, -0.1)

    def test_degradation_duration(self):
        rec = RttRecorder()
        rec.record(0.0, 0.05)
        rec.record(1.0, 0.30)   # above until next sample at 3.0
        rec.record(3.0, 0.05)
        assert rec.degradation_duration(0.2) == pytest.approx(2.0)

    def test_degradation_respects_start(self):
        rec = RttRecorder()
        rec.record(0.0, 0.30)
        rec.record(1.0, 0.30)
        rec.record(2.0, 0.05)
        assert rec.degradation_duration(0.2, start=0.5) == pytest.approx(1.0)


class TestFrameRecorder:
    def test_delayed_ratio(self):
        rec = FrameRecorder()
        rec.record(1.0, 0.1)
        rec.record(2.0, 0.5)
        assert rec.delayed_ratio(0.4) == 0.5

    def test_per_second_fps(self):
        rec = FrameRecorder()
        for t in [0.1, 0.2, 0.3, 1.5]:
            rec.record(t, 0.05)
        fps = rec.per_second_fps(duration=2.0)
        assert fps == [3.0, 1.0]

    def test_low_fps_ratio(self):
        rec = FrameRecorder()
        for i in range(24):
            rec.record(0.5 + i * 0.01, 0.05)  # 24 frames in second 0
        rec.record(1.5, 0.05)                 # 1 frame in second 1
        assert rec.low_fps_ratio(duration=2.0) == 0.5

    def test_low_fps_duration(self):
        rec = FrameRecorder()
        for i in range(24):
            rec.record(0.5 + i * 0.01, 0.05)
        assert rec.low_fps_duration(duration=3.0) == 2.0

    def test_negative_delay_rejected(self):
        rec = FrameRecorder()
        with pytest.raises(ValueError):
            rec.record(0.0, -1.0)

    def test_fractional_duration_counts_tail_frames(self):
        # 12 frames land in the 0.5 s tail bucket: the old code sized
        # the bucket list with int(duration) and silently dropped them.
        rec = FrameRecorder()
        for t in [0.1, 0.2, 0.3]:
            rec.record(t, 0.05)
        for i in range(12):
            rec.record(1.0 + i * 0.04, 0.05)
        fps = rec.per_second_fps(duration=1.5)
        assert fps == [3.0, 24.0]  # 12 frames / 0.5 s tail = 24 fps

    def test_fractional_tail_normalized_not_low_fps(self):
        # 6 frames in a 0.5 s tail is 12 fps — above the 10 fps bar.
        rec = FrameRecorder()
        for i in range(24):
            rec.record(i / 24, 0.05)
        for i in range(6):
            rec.record(1.0 + i * 0.08, 0.05)
        assert rec.low_fps_ratio(duration=1.5) == 0.0

    def test_fractional_duration_low_fps_duration_weights_tail(self):
        # Empty full second (weight 1.0) + empty 0.25 s tail (weight
        # 0.25), after one healthy second.
        rec = FrameRecorder()
        for i in range(24):
            rec.record(i / 24, 0.05)
        assert rec.low_fps_duration(duration=2.25) == 1.25

    def test_sub_second_duration(self):
        rec = FrameRecorder()
        for i in range(6):
            rec.record(i * 0.05, 0.05)
        assert rec.per_second_fps(duration=0.5) == [12.0]

    def test_integer_duration_unchanged(self):
        rec = FrameRecorder()
        for t in [0.1, 0.2, 0.3, 1.5]:
            rec.record(t, 0.05)
        assert rec.per_second_fps(duration=2.0) == [3.0, 1.0]
        assert rec.per_second_fps(duration=2) == [3.0, 1.0]


class TestRateRecorder:
    def test_mean_rate(self):
        rec = RateRecorder(0.0)
        rec.record(0.0, 1e6)
        rec.record(1.0, 3e6)
        assert rec.mean_rate() == 2e6

    def test_mean_rate_with_start(self):
        rec = RateRecorder(5.0)
        rec.record(0.0, 1e6)
        rec.record(5.0, 2e6)    # stamped at the cut: kept
        rec.record(10.0, 3e6)
        assert rec.mean_rate() == 2.5e6


class TestDegradationDuration:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            degradation_duration([1.0], [], 0.5)

    def test_last_sample_contributes_nothing(self):
        assert degradation_duration([0.0], [9.9], 0.5) == 0.0

    def test_interleaved(self):
        times = [0, 1, 2, 3, 4]
        values = [1, 0, 1, 0, 1]
        assert degradation_duration(times, values, 0.5) == pytest.approx(2.0)
