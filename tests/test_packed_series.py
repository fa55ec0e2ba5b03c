"""Packed result series against the per-sample bodies they replace.

Recorder columns and ``FlowSummary`` series are ``array('d')``; the
warm-up cut is one ``bisect_left`` on the non-decreasing clock column.
The oracles in ``tests/reference_series.py`` are the list-era bodies.
Random series — stamps with repeats, samples exactly at the warm-up
instant, empty recorders, all samples before or after it — must cut
and average bit for bit as they did, and a seeded ``bisect_right``
mutant must be caught.  Summaries must round-trip through JSON and
pickle, and a fleet accumulator through pickle, to equal objects whose
payloads and digests are those of the list-built originals, over
floats including ``-0.0``, subnormals and repeats; the summary's
``predicted`` / ``actual`` columns must serialize as the
``prediction_pairs`` list they replace.
"""

import hashlib
import itertools
import json
import pickle
import random
import struct
from array import array
from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import repro.metrics.recorder as recorder_mod
from repro.campaign import ScenarioSpec, TraceSpec
from repro.campaign.summary import FlowSummary, ScenarioSummary
from repro.city.merge import FleetAccumulator
from repro.metrics.recorder import FrameRecorder, RateRecorder, RttRecorder
from repro.metrics.stats import percentile
from tests.reference_series import (_filtered_frames, _filtered_rtt,
                                    flow_as_dict, mean_rate)

SERIES = ("rtt_times", "rtt_values", "cca_rtt_times", "cca_rtt_values",
          "frame_times", "frame_delays")
SPEC = ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0), duration=1.0)

#: Floats whose bits a careless round trip would lose.
SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 2.225073858507201e-308,
                           2.2250738585072014e-308, 0.1, 0.1, 1e300])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL
NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False,
                         allow_infinity=False) | SPECIAL
#: Delays the fleet sketch can bucket (it takes the log of value/floor).
DELAYS = st.floats(0.0, 1e6) | SPECIAL
#: Clock steps: zero repeats a stamp, a dyadic tick lands stamps on
#: round instants, anything else lands between them.
STEPS = st.just(0.0) | st.sampled_from([1 / 64, 0.1]) | st.floats(0.0, 2.0)


@st.composite
def series(draw, values=NON_NEGATIVE):
    """``(times, values, start)``: a non-decreasing clock column, its
    samples, and a warm-up instant — one of the stamps, before all of
    them, after all of them, or anywhere in between."""
    times = list(itertools.accumulate(draw(st.lists(STEPS, max_size=40))))
    samples = draw(st.lists(values, min_size=len(times),
                            max_size=len(times)))
    last = times[-1] if times else 0.0
    pool = [-1.0, last + 1.0] + times
    start = draw(st.sampled_from(pool) | st.floats(-1.0, last + 1.0))
    return times, samples, start


def _bits(column) -> bytes:
    return array("d", column).tobytes()


def _filled(cls, times, samples):
    recorder = cls()
    for t, v in zip(times, samples):
        recorder.record(t, v)
    return recorder


def _cuts_match(case) -> bool:
    times, samples, start = case
    rtt = _filled(RttRecorder, times, samples)
    frames = _filled(FrameRecorder, times, samples)
    got_rtt, want_rtt = rtt.since(start), _filtered_rtt(rtt, start)
    got_frames, want_frames = (frames.since(start),
                               _filtered_frames(frames, start))
    return (_bits(got_rtt.times) == _bits(want_rtt.times)
            and _bits(got_rtt.rtts) == _bits(want_rtt.rtts)
            and _bits(got_frames.frame_times) == _bits(want_frames.frame_times)
            and _bits(got_frames.frame_delays)
            == _bits(want_frames.frame_delays))


@settings(max_examples=300, deadline=None)
@given(series())
def test_since_matches_the_filtered_copies(case):
    assert _cuts_match(case)


@settings(max_examples=300, deadline=None)
@given(series(values=FINITE))
def test_mean_rate_matches_the_filtered_mean(case):
    times, samples, start = case
    recorder = _filled(RateRecorder, times, samples)
    assert struct.pack("<d", recorder.mean_rate(start)) \
        == struct.pack("<d", mean_rate(recorder, start))
    cut = recorder.since(start)
    assert _bits(cut.rates) == _bits(
        [r for t, r in zip(times, samples) if t >= start])


def test_since_returns_fresh_columns():
    recorder = _filled(RttRecorder, [0.0, 1.0, 1.0, 2.0], [0.1] * 4)
    cut = recorder.since(1.0)
    assert list(cut.times) == [1.0, 1.0, 2.0]
    cut.times[0] = 9.0
    cut.rtts.append(9.0)
    assert list(recorder.times) == [0.0, 1.0, 1.0, 2.0]
    assert recorder.count == 4


def test_take_moves_the_columns():
    recorder = _filled(RttRecorder, [0.0, 1.0, 1.0, 2.0], [0.1] * 4)
    times = recorder.times
    cut = recorder.take(1.0)
    assert cut.times is times and list(cut.times) == [1.0, 1.0, 2.0]
    assert recorder.count == 0 and recorder.times is not times
    recorder.record(3.0, 0.2)  # a later sample stays out of the cut
    assert list(cut.times) == [1.0, 1.0, 2.0]


def test_summary_recorders_read_the_summary_columns():
    flow = FlowSummary(rtt_times=[0.5, 1.0], rtt_values=[0.1, 0.2],
                       cca_rtt_times=[0.5], cca_rtt_values=[0.3],
                       frame_times=[1.0], frame_delays=[0.04])
    summary = ScenarioSummary(spec=SPEC, flows=[flow])
    assert summary.rtt.rtts is summary.flows[0].rtt_values
    assert summary.rtt.times is flow.rtt_times
    assert flow.cca_rtt.rtts is flow.cca_rtt_values
    assert summary.frames.frame_delays is flow.frame_delays


def test_oracle_kills_a_bisect_right_mutant(monkeypatch):
    """Cutting after the last stamp equal to the warm-up instant drops
    the samples taken exactly at it; the oracle finds such a case."""
    monkeypatch.setattr(recorder_mod, "bisect_left", bisect_right)
    find(series(), lambda case: not _cuts_match(case),
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]),
         random=random.Random(29))


def _list_digest(summary: ScenarioSummary, listed) -> str:
    """The digest of ``summary`` with its flows emitted as list-built
    payloads, exactly as the list-era ``as_dict`` did."""
    payload = summary.digest_payload()
    payload["flows"] = [flow_as_dict(flow) for flow in listed]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(FINITE, max_size=20),
                          st.lists(FINITE, max_size=20)),
                min_size=3, max_size=3),
       st.floats(0.0, 1e9), st.floats(0.0, 1e9))
def test_flow_summary_round_trips(columns, goodput, bitrate):
    # Times and values of one series share a length, as recorded.
    lists = {}
    for (name_t, name_v), (left, right) in zip(
            zip(SERIES[::2], SERIES[1::2]), columns):
        n = min(len(left), len(right))
        lists[name_t], lists[name_v] = left[:n], right[:n]
    listed = SimpleNamespace(**lists, goodput_bps=goodput,
                             mean_bitrate_bps=bitrate)
    flow = FlowSummary(**lists, goodput_bps=goodput,
                       mean_bitrate_bps=bitrate)
    assert all(isinstance(getattr(flow, name), array) for name in SERIES)
    assert json.dumps(flow.as_dict()) == json.dumps(flow_as_dict(listed))

    summary = ScenarioSummary(spec=SPEC, flows=[flow])
    expected = _list_digest(summary, [listed])
    assert summary.digest() == expected
    blob = json.dumps(summary.as_dict())
    for again in (ScenarioSummary.from_dict(json.loads(blob)),
                  pickle.loads(pickle.dumps(summary))):
        assert again == summary
        assert all(_bits(getattr(again.flows[0], name))
                   == _bits(getattr(flow, name)) for name in SERIES)
        assert json.dumps(again.as_dict()) == blob
        assert again.digest() == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), max_size=30))
def test_prediction_columns_serialize_as_the_pair_list(pairs):
    """The two prediction columns are the list of pairs at the JSON
    edge: payload, digest and both round trips are byte for byte those
    of the tuple list the summary used to hold."""
    summary = ScenarioSummary(spec=SPEC, predicted=[p for p, _ in pairs],
                              actual=[a for _, a in pairs])
    assert isinstance(summary.predicted, array)
    assert isinstance(summary.actual, array)
    payload = summary.as_dict()
    assert json.dumps(payload["prediction_pairs"]) == \
        json.dumps([list(pair) for pair in pairs])
    blob = json.dumps(payload)
    for again in (ScenarioSummary.from_dict(json.loads(blob)),
                  pickle.loads(pickle.dumps(summary))):
        assert again == summary
        assert _bits(again.predicted) == _bits(summary.predicted)
        assert _bits(again.actual) == _bits(summary.actual)
        assert json.dumps(again.as_dict()) == blob
        assert again.digest() == summary.digest()


def test_unequal_prediction_columns_are_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        ScenarioSummary(spec=SPEC, predicted=[0.1], actual=[])
    payload = ScenarioSummary(spec=SPEC).as_dict()
    for bad in ([[0.1]], [[0.1, 0.2, 0.3]], [[0.1, 0.2], [0.3]]):
        payload["prediction_pairs"] = bad
        with pytest.raises(ValueError):
            ScenarioSummary.from_dict(payload)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(DELAYS, max_size=20),
                          st.lists(DELAYS, max_size=20)),
                min_size=1, max_size=4))
def test_fleet_state_round_trips(shards):
    acc = FleetAccumulator()
    for index, (rtts, frames) in enumerate(shards):
        acc.add(index, ScenarioSummary(
            spec=SPEC, flows=[FlowSummary(rtt_values=rtts,
                                          frame_delays=frames,
                                          goodput_bps=1e6)]))
    fleet = acc.finalize()
    pooled = sorted(v for rtts, _ in shards for v in rtts)
    if pooled:
        assert struct.pack("<d", fleet.rtt_p99) \
            == struct.pack("<d", percentile(pooled, 99))
    again = pickle.loads(pickle.dumps(acc))
    assert again.finalize().digest() == fleet.digest()
