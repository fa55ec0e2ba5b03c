"""Additional driver tests: testbed, distributions, frame-rate sweep."""

import pytest

from repro.experiments.drivers.testbed import _scenario_config, fig18_testbed
from repro.experiments.drivers.traces_eval import (fig13_distributions,
                                                   table3_abc_traces)


class TestTestbedDriver:
    def test_scp_config(self):
        spec = _scenario_config("scp", 30.0, 1, {})
        assert spec.competitors == 1
        assert spec.competitor_period == 15.0

    def test_mcs_config(self):
        spec = _scenario_config("mcs", 30.0, 1, {})
        assert spec.mcs_switch_period == 10.0

    def test_raw_config(self):
        spec = _scenario_config("raw", 30.0, 1, {})
        assert spec.trace.build().name == "W2"

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            _scenario_config("office-party", 30.0, 1, {})

    def test_rows_structure(self):
        rows = fig18_testbed(scenarios=("raw",), duration=12.0, seeds=(1,))
        assert len(rows) == 3
        assert {r.scheme for r in rows} == {"Gcc+FIFO", "Gcc+CoDel",
                                            "Gcc+Zhuge"}
        for row in rows:
            assert row.mean_bitrate_bps > 0


class TestDistributionsDriver:
    def test_fig13_curve_structure(self):
        curves = fig13_distributions(trace_name="W2", duration=12.0,
                                     seeds=(1,))
        assert set(curves) == {"Gcc+FIFO", "Gcc+CoDel", "Gcc+Zhuge"}
        for data in curves.values():
            assert data["rtt_ccdf"]
            assert data["frame_delay_ccdf"]
            # CCDF probabilities decrease along the curve.
            probs = [p for _, p in data["rtt_ccdf"]]
            assert probs[0] >= probs[-1]


class TestTable3Driver:
    def test_three_schemes(self):
        rows = table3_abc_traces(duration=12.0, seeds=(1,))
        assert [r.scheme for r in rows] == ["Copa", "ABC", "Copa+Zhuge"]
        for row in rows:
            assert row.trace == "ABC-legacy"
