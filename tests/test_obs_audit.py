"""Tests for the Fortune-Teller prediction auditor."""

import math

import pytest

from repro.core.prediction_join import PredictionJoin
from repro.obs.audit import BINS, AuditReport, PredictionAuditor, bin_index
from repro.sim.engine import Simulator


def _run(*steps):
    """Drive a recording join with ``(time, method, *args)`` steps."""
    sim = Simulator()
    join = PredictionJoin(sim, record=True)
    for time, method, *args in steps:
        sim.call_at(time, lambda m=method, a=args: getattr(join, m)(*a))
    sim.run()
    return join


def _auditor(join):
    return PredictionAuditor.from_pairs(zip(join.predicted, join.actual))


class TestLiveJoin:
    """The AP's prediction join, whose pairs the auditor reduces."""

    def test_predict_then_deliver_joins_pair(self):
        join = _run((1.0, "note", 7, 0.016), (1.012, "deliver", 7))
        assert _auditor(join).pairs == [(0.016, 1.012 - 1.0)]
        assert len(join) == 0

    def test_delivery_without_prediction_ignored(self):
        join = _run((1.0, "deliver", 9))
        assert _auditor(join).pairs == []

    def test_drop_evicts_open_prediction(self):
        join = _run((1.0, "note", 3, 0.02), (1.001, "drop", 3),
                    (1.5, "deliver", 3))
        assert _auditor(join).pairs == []
        assert len(join) == 0

    def test_drop_of_unknown_packet_not_counted(self):
        join = _run((1.0, "note", 1, 0.02), (1.001, "drop", 42))
        assert len(join) == 1 and join.evicted == 0
        assert join.oldest_noted_at == 1.0

    def test_live_matches_from_pairs(self):
        steps, pairs = [], []
        for i in range(50):
            t = 0.1 * i
            predicted = 0.010 + 0.0001 * i
            actual = 0.012 + 0.00008 * i
            steps += [(t, "note", i, predicted),
                      (t + actual, "deliver", i)]
            pairs.append((predicted, actual))
        live = _auditor(_run(*steps))
        assert len(live.pairs) == len(pairs)
        for (lp, la), (p, a) in zip(live.pairs, pairs):
            assert lp == p
            assert la == pytest.approx(a)
        # Identical pairs -> bit-identical reports.
        assert PredictionAuditor.from_pairs(live.pairs).report() == \
            live.report()


class TestReport:
    def test_empty_report_is_nan(self):
        report = PredictionAuditor().report()
        assert report.pairs == 0
        assert math.isnan(report.p50) and math.isnan(report.p99)
        assert math.isnan(report.mean_abs_error)
        assert report.error_cdf == []
        assert report.heatmap == {}
        assert report.format_lines() == [
            "prediction auditor: no (predicted, actual) pairs joined"]

    def test_quantiles_and_mean(self):
        pairs = [(0.010, 0.010 + e) for e in
                 (0.001, 0.002, 0.003, 0.004, 0.005)]
        report = PredictionAuditor.from_pairs(pairs).report()
        assert report.pairs == 5
        assert report.p50 == pytest.approx(0.003)
        assert report.mean_abs_error == pytest.approx(0.003)
        assert report.p99 >= report.p95 >= report.p50

    def test_quantiles_ms(self):
        report = AuditReport(pairs=1, p50=0.002, p90=0.003, p95=0.004,
                             p99=0.005, mean_abs_error=0.002)
        assert report.quantiles_ms() == {"p50": 2.0, "p95": 4.0,
                                         "p99": 5.0}

    def test_format_lines(self):
        report = PredictionAuditor.from_pairs([(0.010, 0.012)]).report()
        lines = report.format_lines()
        assert lines[0] == "prediction auditor: 1 packets audited"
        assert "2.00" in lines[1] and "2.00" in lines[2]

    def test_heatmap_uses_fig19_bins(self):
        pairs = [(0.0005, 0.003), (0.0005, 0.003), (0.1, 99.0)]
        report = PredictionAuditor.from_pairs(pairs).report()
        assert report.heatmap == {(0, 1): 2, (4, 5): 1}

    def test_error_cdf_resolution(self):
        pairs = [(0.01, 0.01 + 0.0001 * i) for i in range(100)]
        report = PredictionAuditor.from_pairs(pairs).report(
            cdf_resolution=10)
        assert len(report.error_cdf) == 11  # resolution steps + origin
        xs = [x for x, _ in report.error_cdf]
        assert xs == sorted(xs)


class TestBins:
    def test_bin_index_edges(self):
        assert bin_index(0.0) == 0
        assert bin_index(0.001) == 0
        assert bin_index(0.0011) == 1
        assert bin_index(10.0) == len(BINS) - 1
        assert bin_index(999.0) == len(BINS) - 1
