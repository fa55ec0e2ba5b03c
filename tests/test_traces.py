"""Tests for trace container, analysis, and synthetic generators."""

import pytest

from repro.traces import (
    BandwidthTrace,
    TRACE_NAMES,
    abc_legacy_trace,
    abw_reduction_ratios,
    ethernet_trace,
    make_trace,
    reduction_tail_fraction,
)
from repro.traces.synthetic import TRACE_MODELS, drop_trace


class TestBandwidthTrace:
    def test_rate_at_steps(self):
        trace = BandwidthTrace([1e6, 2e6], interval=0.5)
        assert trace.rate_at(0.0) == 1e6
        assert trace.rate_at(0.49) == 1e6
        assert trace.rate_at(0.5) == 2e6

    def test_rate_wraps_past_end(self):
        trace = BandwidthTrace([1e6, 2e6], interval=0.5)
        assert trace.rate_at(1.0) == 1e6
        assert trace.rate_at(1.7) == 2e6

    def test_negative_time_rejected(self):
        trace = BandwidthTrace([1e6])
        with pytest.raises(ValueError):
            trace.rate_at(-1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([-1.0])

    def test_duration_and_mean(self):
        trace = BandwidthTrace([1e6, 3e6], interval=0.25)
        assert trace.duration == 0.5
        assert trace.mean_bps == 2e6

    def test_next_change(self):
        trace = BandwidthTrace([1e6, 2e6], interval=0.5)
        assert trace.next_change(0.2) == 0.5
        assert trace.next_change(0.5) == 1.0

    def test_scaled(self):
        trace = BandwidthTrace([1e6, 2e6])
        scaled = trace.scaled(0.5)
        assert scaled.rates_bps == [0.5e6, 1e6]

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            BandwidthTrace([1e6]).scaled(0.0)

    def test_windows_mean(self):
        trace = BandwidthTrace([1e6, 3e6, 5e6, 7e6], interval=0.1)
        assert trace.windows(0.2) == [2e6, 6e6]

    def test_from_steps(self):
        trace = BandwidthTrace.from_steps([(0.5, 1e6), (0.5, 2e6)],
                                          interval=0.1)
        assert trace.rate_at(0.0) == 1e6
        assert trace.rate_at(0.6) == 2e6

    def test_constant(self):
        trace = BandwidthTrace.constant(5e6, 1.0, interval=0.1)
        assert len(trace) == 10
        assert trace.mean_bps == 5e6

    def test_save_load_roundtrip(self, tmp_path):
        trace = BandwidthTrace([1e6, 2e6], interval=0.25, name="x",
                               extra={"k": 1})
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = BandwidthTrace.load(path)
        assert loaded.rates_bps == trace.rates_bps
        assert loaded.interval == trace.interval
        assert loaded.name == "x"
        assert loaded.extra == {"k": 1}

    def test_resampled(self):
        trace = BandwidthTrace([1e6, 2e6, 3e6, 4e6], interval=0.1)
        coarse = trace.resampled(0.2)
        assert len(coarse) == 2


class TestAbwAnalysis:
    def test_reduction_ratio_simple_drop(self):
        # 10 Mbps then 1 Mbps in consecutive windows = 10x drop.
        trace = BandwidthTrace([10e6] * 5 + [1e6] * 5, interval=0.04)
        ratios = abw_reduction_ratios(trace, window=0.2)
        assert ratios == [pytest.approx(10.0)]

    def test_increases_not_counted(self):
        trace = BandwidthTrace([1e6] * 5 + [10e6] * 5, interval=0.04)
        assert abw_reduction_ratios(trace, window=0.2) == []

    def test_tail_fraction(self):
        trace = BandwidthTrace([10e6] * 5 + [1e6] * 5 + [10e6] * 5,
                               interval=0.04)
        # Two transitions; one is a 10x drop.
        assert reduction_tail_fraction(trace, 10.0, window=0.2) == pytest.approx(0.5)

    def test_floor_guards_zero_windows(self):
        trace = BandwidthTrace([10e6] * 5 + [0.0] * 5, interval=0.04)
        ratios = abw_reduction_ratios(trace, window=0.2, floor_bps=1e3)
        assert ratios[0] == pytest.approx(10e6 / 1e3)


class TestSyntheticTraces:
    @pytest.mark.parametrize("name", TRACE_NAMES)
    def test_mean_matches_model(self, name):
        trace = make_trace(name, duration=300, seed=5)
        assert trace.mean_bps == pytest.approx(TRACE_MODELS[name].mean_bps,
                                               rel=0.05)

    @pytest.mark.parametrize("name", TRACE_NAMES)
    def test_fig3b_band(self, name):
        """Wireless traces must land in the paper's 0.6-7.3%-ish band."""
        trace = make_trace(name, duration=1200, seed=3)
        fraction = reduction_tail_fraction(trace, 10.0)
        assert 0.002 <= fraction <= 0.073

    def test_ethernet_below_wireless(self):
        eth = ethernet_trace(duration=1200, seed=3)
        assert reduction_tail_fraction(eth, 10.0) < 0.001

    def test_deterministic_given_seed(self):
        a = make_trace("W1", duration=10, seed=9)
        b = make_trace("W1", duration=10, seed=9)
        assert a.rates_bps == b.rates_bps

    def test_seeds_differ(self):
        a = make_trace("W1", duration=10, seed=1)
        b = make_trace("W1", duration=10, seed=2)
        assert a.rates_bps != b.rates_bps

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_trace("W9")

    def test_abc_legacy_order_of_magnitude_lower(self):
        legacy = abc_legacy_trace(duration=300, seed=1)
        main = make_trace("W1", duration=300, seed=1)
        assert legacy.mean_bps < main.mean_bps / 5

    def test_rates_respect_floor(self):
        trace = make_trace("W1", duration=300, seed=4)
        assert min(trace.rates_bps) >= TRACE_MODELS["W1"].min_bps

    #: sha256 (first 32 hex digits) of the little-endian doubles of each
    #: 30 s trace, seeds 1, 2, 3: every scenario over a synthetic trace
    #: depends on these values, so a generator change must keep them.
    PINNED = {
        "W1": ("6efa5f049caea5580df57f7f8d9d49c7",
               "cc7e7ff2c9204b1b52d0edfdb238b49f",
               "4e5343650ffc53c9d9c00cbb7d1fd010"),
        "W2": ("dcd3a24157c0f28d65a426b5becd9642",
               "1d3c7c00d665a9fdcd02a325a79ffa60",
               "dcdfff5bcceffa92523d9755b4abc39e"),
        "C1": ("aebfa73e3210e6f32192470f8e1060c9",
               "62277267c48db4df4bb861823b375b2f",
               "30743ab9f3e817c5792e876a5b0ee5fa"),
        "C2": ("43c88373bba5885533ff17865827c74d",
               "4f0093021cfba1acc6f3388aab7f67a7",
               "325cda31fca4980568a29858e04e8edd"),
        "C3": ("be31580e479983abab24846309be0b7c",
               "c428d1eabd4e3a0899151d0dbf1069c5",
               "348047afa17ef08c29e440324761e8f4"),
        "abc-legacy": ("c8f1463cd5925a9b15e2c9e9e816ed19",
                       "4a64fbfc116ac26d9e34eb31da01503a",
                       "2fe97a12f9de43619cbb9a8cc7db7cf6"),
    }

    @pytest.mark.bitexact
    @pytest.mark.parametrize("name", list(PINNED))
    def test_values_are_pinned(self, name):
        import hashlib
        import struct
        for seed, pinned in zip((1, 2, 3), self.PINNED[name]):
            trace = (abc_legacy_trace(duration=30.0, seed=seed)
                     if name == "abc-legacy"
                     else make_trace(name, duration=30.0, seed=seed))
            rates = trace.rates_bps
            assert len(rates) == 750
            digest = hashlib.sha256(
                struct.pack(f"<{len(rates)}d", *rates)).hexdigest()
            assert digest[:32] == pinned, (name, seed)


class TestDropTrace:
    def test_step_shape(self):
        trace = drop_trace(30e6, k=10, drop_at=1.0, duration=3.0)
        assert trace.rate_at(0.5) == pytest.approx(30e6)
        assert trace.rate_at(1.5) == pytest.approx(3e6)

    def test_recovery(self):
        trace = drop_trace(30e6, k=10, drop_at=1.0, duration=3.0,
                           recover_at=2.0)
        assert trace.rate_at(2.5) == pytest.approx(30e6)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            drop_trace(30e6, k=0.5, drop_at=1.0, duration=3.0)
