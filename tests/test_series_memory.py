"""Memory guard: result series are held once, as packed C doubles.

Traced with ``tracemalloc`` on a short headline cell (W1, rtp/gcc over
Zhuge, two RTC flows, 8 s with 2 s of warm-up: 3 728 post-warm-up RTT
samples, 15 478 values across the six summary series).

* ``ScenarioSummary``: bytes freed by dropping the summary once the
  builder and the result are gone, per RTT sample. Packed, it measures
  33.9 B (8.2 B per value: one double, plus the array headers). As
  Python lists it measured 90.0 B: a list slot plus a float object for
  most values. Bound: 45 B.
* ``FleetAccumulator``: bytes its exact-percentile records keep per
  retained sample, over summaries decoded from JSON (so nothing else
  holds the floats), net of an accumulator that collapsed to sketches
  at once. Packed, it measures 8.6 B (a double plus ``extend``
  over-allocation); lists of floats measured 32.1 B. Bound: 12 B.
* ``collect``: the traced peak while the finished run is condensed,
  over the memory in use before it, per RTT sample. Moving the
  recorders' columns measures 0.5 B; copying the warm-up-cut series
  (``since``) measured 35.0 B. Bound: 4 B, well under one more double
  per sample.
* ``ResultCache.put``: the traced peak of one put of that summary, per
  RTT sample. Streamed a block of 256 values at a time it measures
  14.7 B (a fixed ~55 KB); built whole as lists, a str and bytes it
  measured 575 B. Bound: 40 B.
"""

import gc
import json
import tracemalloc
from dataclasses import fields

import pytest

from repro.campaign import ResultCache, ScenarioSpec, TraceSpec, run_campaign
from repro.campaign import runner
from repro.campaign.summary import _SERIES, ScenarioSummary
from repro.city.merge import FleetAccumulator
from repro.topology.builder import TopologyBuilder
from repro.topology.result import collect

SUMMARY_BYTES_PER_RTT_SAMPLE = 45
FLEET_BYTES_PER_SAMPLE = 12
COLLECT_BYTES_PER_RTT_SAMPLE = 4
PUT_BYTES_PER_RTT_SAMPLE = 40

HEADLINE = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=8.0,
                                                   seed=3),
                        duration=8.0, seed=1, warmup=2.0, ap_mode="zhuge",
                        protocol="rtp", cca="gcc", rtc_flows=2)


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _traced_now() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _headline_summary() -> ScenarioSummary:
    # The builder dies with this expression.
    return TopologyBuilder(HEADLINE).run()


def _rtt_samples(summary: ScenarioSummary) -> int:
    return sum(len(flow.rtt_values) for flow in summary.flows)


def _traced_peak_over(before: int) -> int:
    return tracemalloc.get_traced_memory()[1] - before


def test_summary_retains_packed_series(traced):
    summary = _headline_summary()
    rtt_samples = _rtt_samples(summary)
    assert rtt_samples > 3000
    kept = _traced_now()
    del summary
    retained = kept - _traced_now()
    assert retained / rtt_samples < SUMMARY_BYTES_PER_RTT_SAMPLE, retained


def test_fleet_records_retain_packed_samples(traced):
    blob = json.dumps(_headline_summary().as_dict())

    def retained(budget: int) -> int:
        base = _traced_now()
        acc = FleetAccumulator(sample_budget=budget)
        for index in range(4):
            acc.add(index, ScenarioSummary.from_dict(json.loads(blob)))
        held = _traced_now() - base
        assert acc.exact == (budget > 0)
        return held

    flows = json.loads(blob)["flows"]
    samples = 4 * sum(len(flow["rtt_values"]) + len(flow["frame_delays"])
                      for flow in flows)
    exact, collapsed = retained(10 ** 9), retained(0)
    assert (exact - collapsed) / samples < FLEET_BYTES_PER_SAMPLE, \
        (exact, collapsed, samples)


def test_collect_moves_series_without_a_copy(traced):
    builder = TopologyBuilder(HEADLINE)
    builder.sim.run(until=HEADLINE.duration)
    before = _traced_now()
    tracemalloc.reset_peak()
    summary = collect(builder)
    added = _traced_peak_over(before)
    assert added / _rtt_samples(summary) < COLLECT_BYTES_PER_RTT_SAMPLE, added

    forwarding = builder.forwarding
    for fr, flow in zip(forwarding.rtc, summary.flows):
        kept = [getattr(flow, name) for name in _SERIES]
        for recorder in (forwarding.network_rtt[fr.flow],
                         fr.sender.rtt_recorder, fr.app.frame_recorder):
            columns = [getattr(recorder, f.name) for f in fields(recorder)]
            assert [len(column) for column in columns] == [0, 0]
            assert not any(column is series
                           for column in columns for series in kept)


def test_cache_put_streams_the_entry(traced, tmp_path):
    summary = _headline_summary()
    cache = ResultCache(root=tmp_path)
    cache.put(HEADLINE, summary)  # hashes the source tree, makes dirs
    before = _traced_now()
    tracemalloc.reset_peak()
    cache.put(HEADLINE, summary)
    added = _traced_peak_over(before)
    assert added / _rtt_samples(summary) < PUT_BYTES_PER_RTT_SAMPLE, added


def test_serial_consume_gets_the_executed_object(monkeypatch, tmp_path):
    spec = ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0), duration=1.0,
                        seed=1)
    returned, consumed = [], []
    execute_spec = runner.execute_spec

    def execute(spec):
        returned.append(execute_spec(spec))
        return returned[-1]

    monkeypatch.setattr(runner, "execute_spec", execute)
    cache = ResultCache(root=tmp_path)
    result = run_campaign([spec], jobs=0, cache=cache,
                          consume=lambda cell: consumed.append(cell.summary))
    assert result.ok == 1 and len(returned) == 1
    assert consumed[0] is returned[0]
    assert cache.get(spec).digest() == returned[0].digest()
