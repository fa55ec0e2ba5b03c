"""Tests for ScenarioSpec / TraceSpec: round trips, hashing, building."""

import json
import pickle

import pytest

from repro.campaign.spec import (ScenarioSpec, TraceSpec, code_fingerprint)
from repro.topology.builder import TopologyBuilder
from repro.topology.spec import FlowSpec
from repro.traces.synthetic import drop_trace, make_trace
from repro.traces.trace import BandwidthTrace


def _spec(**overrides) -> ScenarioSpec:
    base = dict(trace=TraceSpec.for_family("W2", duration=8.0, seed=3),
                duration=8.0, seed=3)
    base.update(overrides)
    return ScenarioSpec(**base)


class TestTraceSpec:
    def test_family_builds_same_trace_as_generator(self):
        trace = TraceSpec.for_family("W1", duration=10.0, seed=7).build()
        direct = make_trace("W1", duration=10.0, seed=7)
        assert trace.rates_bps == direct.rates_bps
        assert trace.interval == direct.interval

    def test_family_normalizes_abc_legacy_case(self):
        spec = TraceSpec.for_family("ABC-legacy", duration=5.0, seed=1)
        assert spec.family == "abc-legacy"
        assert spec.build().name == "abc-legacy"

    def test_eth_family(self):
        assert TraceSpec.for_family("eth", duration=5.0,
                                    seed=1).build().name == "eth"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec.for_family("W9", duration=5.0, seed=1)

    def test_constant(self):
        trace = TraceSpec.constant(5e6, 2.0, name="flat").build()
        assert set(trace.rates_bps) == {5e6}
        assert trace.name == "flat"

    def test_constant_requires_positive_rate(self):
        with pytest.raises(ValueError):
            TraceSpec.constant(0.0, 2.0)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.json"
        make_trace("W2", duration=5.0, seed=2).save(path)
        loaded = TraceSpec.from_file(path).build()
        assert loaded.rates_bps == make_trace("W2", duration=5.0,
                                              seed=2).rates_bps

    def test_dict_roundtrip(self):
        spec = TraceSpec.for_family("C1", duration=12.0, seed=4)
        again = TraceSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again == spec


class TestScenarioSpec:
    def test_dict_roundtrip_through_json(self):
        spec = _spec(ap_mode="zhuge", zhuge_flow_mask=(True, False),
                     rtc_flows=2)
        again = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.as_dict())))
        assert again == spec
        assert isinstance(again.zhuge_flow_mask, tuple)

    def test_builder_lowers_the_spec(self):
        spec = _spec(protocol="tcp", cca="copa", ap_mode="fastack",
                     competitors=2, warmup=1.5)
        builder = TopologyBuilder(spec)
        assert builder.spec is spec
        assert builder.aps["ap"].node.ap_mode == "fastack"
        assert len(builder._competitors) == 2
        assert builder.trace.rates_bps == spec.trace.build().rates_bps
        assert builder.channel.trace is builder.trace

    def test_hash_is_stable(self):
        assert _spec().content_hash() == _spec().content_hash()

    def test_hash_distinguishes_fields(self):
        base = _spec()
        assert base.content_hash() != _spec(seed=4).content_hash()
        assert base.content_hash() != _spec(ap_mode="zhuge").content_hash()
        assert (base.content_hash()
                != _spec(trace=TraceSpec.for_family(
                    "W1", duration=8.0, seed=3)).content_hash())

    def test_hash_covers_trace_file_contents(self, tmp_path):
        path = tmp_path / "t.json"
        make_trace("W2", duration=5.0, seed=2).save(path)
        before = _spec(trace=TraceSpec.from_file(path)).content_hash()
        make_trace("W2", duration=5.0, seed=9).save(path)
        after = _spec(trace=TraceSpec.from_file(path)).content_hash()
        assert before != after

    def test_code_fingerprint_cached_and_short(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_label_mentions_trace_and_seed(self):
        label = _spec(ap_mode="zhuge").label()
        assert "W2" in label
        assert "seed=3" in label
        assert "ap=zhuge" in label


def _assert_round_trips(trace: TraceSpec) -> None:
    """JSON and pickle copies are equal, hash equal, and give the
    scenario the same content hash."""
    for again in (TraceSpec.from_dict(json.loads(json.dumps(
                      trace.as_dict()))),
                  pickle.loads(pickle.dumps(trace))):
        assert again == trace
        assert hash(again) == hash(trace)
        assert _spec(trace=again).content_hash() \
            == _spec(trace=trace).content_hash()


class TestStepsTraceSpec:
    DROPS = [dict(base_bps=30e6, k=10, drop_at=1.0, duration=3.0),
             dict(base_bps=20e6, k=2.5, drop_at=12, duration=27,
                  recover_at=20, interval=0.005)]

    @pytest.mark.parametrize("drop", DROPS)
    def test_drop_builds_drop_trace_bit_for_bit(self, drop):
        built = TraceSpec.drop(**drop).build()
        direct = drop_trace(**drop)
        assert built.rates_bps == direct.rates_bps
        assert [float(r).hex() for r in built.rates_bps] \
            == [float(r).hex() for r in direct.rates_bps]
        assert (built.interval, built.name) == (direct.interval, direct.name)

    def test_from_steps_builds_bandwidth_trace_from_steps(self):
        steps = [(10.0, 16e6), (10.0, 4e6)]
        built = TraceSpec.from_steps(steps, interval=0.01,
                                     name="step").build()
        direct = BandwidthTrace.from_steps(steps, interval=0.01, name="step")
        assert built.rates_bps == direct.rates_bps
        assert (built.interval, built.name) == (direct.interval, direct.name)

    def test_label_and_defaults(self):
        spec = TraceSpec(kind="steps", steps=[[1, 2e6]])
        assert spec.label() == "steps"
        assert spec.steps == ((1.0, 2e6),)
        assert spec.build().interval == 0.010
        assert TraceSpec.drop(30e6, k=4, drop_at=1.0,
                              duration=2.0).label() == "drop-4x"

    def test_needs_steps(self):
        with pytest.raises(ValueError, match="steps"):
            TraceSpec(kind="steps")

    @pytest.mark.parametrize("drop", DROPS)
    def test_round_trips_through_json_and_pickle(self, drop):
        _assert_round_trips(TraceSpec.drop(**drop))

    def test_mutant_from_dict_keeping_json_lists_is_killed(self,
                                                           monkeypatch):
        def keep_lists(cls, payload):
            spec = cls(**payload)
            object.__setattr__(spec, "steps", payload.get("steps"))
            return spec

        monkeypatch.setattr(TraceSpec, "from_dict", classmethod(keep_lists))
        with pytest.raises((AssertionError, TypeError)):
            _assert_round_trips(TraceSpec.drop(**self.DROPS[0]))


class TestSpecValidation:
    """A spec is checked when it is built: a misspelt field value is an
    error, never a different run."""

    @pytest.mark.parametrize("field, bad, good", [
        ("protocol", "sctp", "quic"), ("ap_mode", "zhgue", "zhuge"),
        ("queue_kind", "red", "droptail"), ("link_kind", "wired", "cellular"),
        ("link_kind", "satellite", "wifi"), ("app", "vidoe", "bulk"),
    ])
    def test_unknown_value_rejected(self, field, bad, good):
        with pytest.raises(ValueError, match=field):
            _spec(**{field: bad})
        assert getattr(_spec(**{field: good}), field) == good

    def test_unknown_value_rejected_from_json(self):
        payload = _spec().as_dict()
        payload["app"] = "vidoe"
        with pytest.raises(ValueError, match="app"):
            ScenarioSpec.from_dict(payload)

    def test_flow_spec_rejects_unknown_app(self):
        with pytest.raises(ValueError, match="app"):
            FlowSpec("server", "client", app="vidoe")
        assert FlowSpec("server", "client", app="bulk").app == "bulk"
