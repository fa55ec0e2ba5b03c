"""Tests for the GCC rate controller."""

import pytest

from repro.cca.base import FeedbackPacketReport
from repro.cca.gcc import GccController, OveruseDetector, TrendlineEstimator


def make_reports(base_send, count, send_gap, owd_fn, size=1200):
    """Build reports where packet i has one-way delay owd_fn(i)."""
    reports = []
    for i in range(count):
        send = base_send + i * send_gap
        reports.append(FeedbackPacketReport(i, size, send, send + owd_fn(i)))
    return reports


class TestTrendline:
    def test_flat_delays_zero_slope(self):
        est = TrendlineEstimator()
        slope = 0.0
        for i in range(30):
            slope = est.update(i * 0.01, 0.0)
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_increasing_delays_positive_slope(self):
        est = TrendlineEstimator()
        slope = 0.0
        for i in range(30):
            slope = est.update(i * 0.01, 0.001)  # +1 ms per packet
        assert slope > 0

    def test_decreasing_delays_negative_slope(self):
        est = TrendlineEstimator()
        slope = 0.0
        for i in range(30):
            slope = est.update(i * 0.01, -0.001)
        assert slope < 0


class TestOveruseDetector:
    def test_normal_within_threshold(self):
        det = OveruseDetector()
        assert det.detect(0.0, 0.0, 10) == "normal"

    def test_overuse_requires_sustained_signal(self):
        det = OveruseDetector()
        first = det.detect(0.0, 0.5, 60)
        later = det.detect(0.02, 0.5, 60)
        assert first == "normal"   # not sustained yet
        assert later == "overuse"

    def test_underuse_on_negative_trend(self):
        det = OveruseDetector()
        assert det.detect(0.0, -0.5, 60) == "underuse"

    def test_threshold_adapts(self):
        det = OveruseDetector()
        initial = det.threshold
        # Keep |modified signal| below 4x threshold so adaptation runs
        # (signals far above the threshold are excluded, per the RFC).
        for i in range(50):
            det.detect(i * 0.01, 0.00008, 60)
        assert det.threshold != initial


class TestGccController:
    def test_stable_network_rate_grows(self):
        gcc = GccController(initial_bps=1e6, max_bps=10e6)
        now = 0.0
        for round_index in range(50):
            reports = make_reports(now, 10, 0.005, lambda i: 0.02)
            now += 0.05
            gcc.on_feedback(now, reports)
        assert gcc.target_bps > 1e6

    def test_rising_delay_suppresses_rate(self):
        """A sustained delay ramp must leave the rate below what the
        same controller reaches with flat delays (overuse suppresses
        the increase path)."""
        ramped = GccController(initial_bps=2e6, max_bps=10e6)
        flat = GccController(initial_bps=2e6, max_bps=10e6)
        now = 0.0
        for _ in range(20):  # identical warm-up
            for gcc in (ramped, flat):
                gcc.on_feedback(now + 0.05,
                                make_reports(now, 10, 0.005, lambda i: 0.02))
            now += 0.05
        offset = 0.0
        overuse_seen = False
        for _ in range(20):
            start = offset
            flat.on_feedback(now + 0.05,
                             make_reports(now, 10, 0.005, lambda i: 0.02))
            ramped.on_feedback(
                now + 0.05,
                make_reports(now, 10, 0.005,
                             lambda i, s=start: 0.02 + (s + i) * 0.003))
            overuse_seen |= ramped.last_signal == "overuse"
            offset += 10
            now += 0.05
        assert overuse_seen
        assert ramped.target_bps < flat.target_bps

    def test_heavy_loss_cuts_rate(self):
        gcc = GccController(initial_bps=2e6)
        now = 0.0
        for _ in range(10):
            reports = make_reports(now, 10, 0.005, lambda i: 0.02)
            # Mark 30% lost.
            for report in reports[::3]:
                report.recv_time = None
            now += 0.05
            gcc.on_feedback(now, reports)
        assert gcc._loss_rate < 2e6

    def test_mild_loss_holds_loss_rate(self):
        gcc = GccController(initial_bps=2e6)
        reports = make_reports(0.0, 20, 0.005, lambda i: 0.02)
        reports[0].recv_time = None  # 5% loss: within hold band
        before = gcc._loss_rate
        gcc.on_feedback(0.1, reports)
        assert gcc._loss_rate == before

    def test_rate_clamped(self):
        gcc = GccController(initial_bps=1e6, max_bps=2e6)
        now = 0.0
        for _ in range(200):
            reports = make_reports(now, 10, 0.005, lambda i: 0.02)
            now += 0.05
            gcc.on_feedback(now, reports)
        assert gcc.target_bps <= 2e6

    def test_empty_feedback_ignored(self):
        gcc = GccController(initial_bps=1e6)
        before = gcc.target_bps
        gcc.on_feedback(0.1, [])
        assert gcc.target_bps == before

    def test_invalid_initial_rate(self):
        with pytest.raises(ValueError):
            GccController(initial_bps=0.0)
