"""Unit tests for the per-figure experiment drivers (small configurations)."""

import math

import pytest

from repro.experiments.drivers.access import fig2_access_comparison
from repro.experiments.drivers.accuracy import fig7_qlong_qshort
from repro.experiments.drivers.convergence import run_drop
from repro.experiments.drivers.fairness import fig20_fairness
from repro.experiments.drivers.format import (format_table, mbps, ms, pct,
                                              seconds)
from repro.experiments.drivers.overhead import (fig21_cpu_overhead,
                                                measure_per_packet_cost)
from repro.experiments.drivers.traces_eval import evaluate_scheme
from repro.obs.audit import bin_index


class TestFormatting:
    def test_format_table_basic(self):
        text = format_table("T", ("a", "b"), [(1, 2), (3, 4)])
        assert "== T ==" in text
        assert "1" in text and "4" in text

    def test_format_units(self):
        assert pct(0.1234) == "12.34%"
        assert ms(0.05) == "50ms"
        assert mbps(2.5e6) == "2.50Mbps"
        assert seconds(1.234) == "1.23s"

    def test_widths_fit_content(self):
        text = format_table("T", ("col",), [("a-very-long-cell",)])
        lines = text.splitlines()
        assert "a-very-long-cell" in lines[-1]


class TestAccuracyHelpers:
    def test_bin_index_monotone(self):
        values = [0.0005, 0.002, 0.01, 0.05, 0.2, 1.0]
        indexes = [bin_index(v) for v in values]
        assert indexes == sorted(indexes)
        assert indexes[0] == 0

    def test_fig7_points_cover_window(self):
        points = fig7_qlong_qshort(drop_at_ms=5.0, duration_ms=15.0)
        assert points[0].time_ms == pytest.approx(0.0)
        assert points[-1].time_ms >= 14.0

    def test_fig7_qshort_rises_after_drop(self):
        points = fig7_qlong_qshort(drop_at_ms=5.0, duration_ms=20.0)
        before = max(p.q_short_ms for p in points if p.time_ms < 4.0)
        after = max(p.q_short_ms for p in points if p.time_ms > 8.0)
        assert after > before


class TestEvaluateScheme:
    def test_row_fields(self):
        row = evaluate_scheme("W2", "Gcc+FIFO",
                              dict(protocol="rtp", ap_mode="none"),
                              duration=15.0, seeds=(1,))
        assert row.trace == "W2"
        assert 0.0 <= row.rtt_tail_ratio <= 1.0
        assert 0.0 <= row.delayed_frame_ratio <= 1.0
        assert row.mean_bitrate_bps > 0
        assert row.rtt_samples is None

    def test_keep_samples(self):
        row = evaluate_scheme("W2", "Gcc+FIFO",
                              dict(protocol="rtp", ap_mode="none"),
                              duration=15.0, seeds=(1,), keep_samples=True)
        assert len(row.rtt_samples) > 100


class TestDropDriver:
    def test_no_congestion_when_capacity_remains(self):
        row = run_drop("Gcc+FIFO", dict(protocol="rtp", ap_mode="none"),
                       k=2, max_bps=2.5e6)
        assert row.rtt_degradation_s < 1.0

    def test_row_metrics_nonnegative(self):
        row = run_drop("Gcc+FIFO", dict(protocol="rtp", ap_mode="none"),
                       k=10, max_bps=8e6)
        assert row.rtt_degradation_s >= 0
        assert row.frame_delay_degradation_s >= 0
        assert row.low_fps_duration_s >= 0


class TestAccessDriver:
    def test_three_access_types(self):
        rows = fig2_access_comparison(duration=12.0, seeds=(1,))
        assert [r.access for r in rows] == ["Ethernet", "WiFi", "4G"]
        for row in rows:
            assert row.median_rtt > 0
            assert row.p99_rtt >= row.median_rtt


class TestOverheadDriver:
    def test_cost_positive_and_small(self):
        cost = measure_per_packet_cost(packets=2000)
        assert 0 < cost < 0.001

    def test_rows_cover_routers_and_flows(self):
        rows = fig21_cpu_overhead(flow_counts=(1, 2), packets=2000)
        assert len(rows) == 4
        for row in rows:
            assert 0 <= row.projected_cpu_utilization <= 1.0


class TestFairnessDriver:
    def test_bars_and_protocols(self):
        rows = fig20_fairness(duration=12.0)
        assert len(rows) == 6
        protocols = {r.protocol for r in rows}
        assert protocols == {"rtp", "tcp"}
        for row in rows:
            assert not math.isnan(row.jain_index)
