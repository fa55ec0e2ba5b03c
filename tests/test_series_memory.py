"""Memory guard: result series are held once, as packed C doubles.

Traced with ``tracemalloc`` on a short headline cell (W1, rtp/gcc over
Zhuge, two RTC flows, 8 s with 2 s of warm-up: 3 728 post-warm-up RTT
samples, 8 028 values across the four summary series).

* ``ScenarioSummary``: bytes freed by dropping the summary once the
  builder and the result are gone, per RTT sample. Packed, it measures
  19.0 B (8.8 B per value: one double, plus the array headers); with
  the CCA-perceived RTT pair as two more series it measured 36.1 B. As
  Python lists of six series it measured 90.0 B: a list slot plus a
  float object for most values. Bound: 45 B.
* ``FleetAccumulator``: bytes its exact-percentile records keep per
  retained sample, over summaries decoded from JSON (so nothing else
  holds the floats), net of an accumulator that collapsed to sketches
  at once. Packed, it measures 8.6 B (a double plus ``extend``
  over-allocation); lists of floats measured 32.1 B. Bound: 12 B.
* ``FleetAccumulator.finalize``: the traced peak of one finalize over
  a synthetic 8-shard fleet of 200 000 RTT samples (log-normal around
  60 ms, sigma 0.5) and 8 000 frame delays. Selecting each wanted rank
  through the merged sketch sorts only the buckets that hold those
  ranks (the median's holds about 1.6 % of the samples) and measures
  0.2 MiB; pooling every shard's column and sorting the pool measured
  8.6 MiB. Bound: 1 MiB.
* ``collect``: the traced peak while the finished run is condensed,
  over the memory in use before it, per RTT sample. Moving the
  recorders' columns measures 0.5 B; copying the warm-up-cut series
  (``since``) measured 35.0 B. Bound: 4 B, well under one more double
  per sample.
* ``ResultCache.put``: the traced peak of one put of that summary, per
  RTT sample. Streamed a block of 256 values at a time it measures
  14.7 B (a fixed ~55 KB); built whole as lists, a str and bytes it
  measured 575 B. Bound: 40 B.

State nothing reads is not kept (W2 tcp/copa, two CUBIC competitors
over CoDel, 3 s and 6 s runs with 1 s of warm-up):

* Competitor senders hold no recorder. What the builder holds outside
  the summary grows by 5.0 B per further competitor ACK (packets and
  events in flight at the end); when every sender kept per-ACK RTT
  and rate columns it grew by 37.8 B. Bound: 8 B.
* ``RateRecorder`` is a running mean: 100 000 ``record`` calls hold
  nothing more (its columns held 16 B per call). Bound: 256 B in all.
* ``GccController`` keeps only the last signal: 10 000 feedbacks hold
  nothing more (its ``(time, signal)`` log held about 90 B per
  feedback). Bound: 1 B per feedback.
"""

import gc
import json
import random
import tracemalloc
from dataclasses import fields

import pytest

from repro.campaign import ResultCache, ScenarioSpec, TraceSpec, run_campaign
from repro.campaign import runner
from repro.campaign.summary import _SERIES, FlowSummary, ScenarioSummary
from repro.cca.base import FeedbackPacketReport
from repro.cca.gcc import GccController
from repro.city.merge import FleetAccumulator
from repro.metrics.recorder import RateRecorder
from repro.topology.builder import TopologyBuilder
from repro.topology.result import collect

pytestmark = pytest.mark.bitexact

SUMMARY_BYTES_PER_RTT_SAMPLE = 45
FLEET_BYTES_PER_SAMPLE = 12
FINALIZE_PEAK_BYTES = 1 << 20
COLLECT_BYTES_PER_RTT_SAMPLE = 4
PUT_BYTES_PER_RTT_SAMPLE = 40
BUILDER_BYTES_PER_COMPETITOR_ACK = 8
RATE_RECORDER_BYTES = 256
GCC_BYTES_PER_FEEDBACK = 1

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


def _finalize_peak(rtt, frame) -> int:
    """Traced peak of ``finalize`` over 8 shards of 25 k ``rtt()`` and
    1 k ``frame()`` samples."""
    acc = FleetAccumulator()
    for index in range(8):
        flow = FlowSummary(rtt_values=[rtt() for _ in range(25_000)],
                           frame_delays=[frame() for _ in range(1_000)])
        acc.add(index, ScenarioSummary(spec=HEADLINE, flows=[flow]))
    before = _traced_now()
    tracemalloc.reset_peak()
    fleet = acc.finalize()
    added = _traced_peak_over(before)
    assert fleet.exact and fleet.rtt_samples == 200_000
    return added


def test_fleet_finalize_sorts_no_pool(traced):
    rng = random.Random(1)
    added = _finalize_peak(lambda: rng.lognormvariate(-2.8, 0.5),
                           lambda: rng.lognormvariate(-2.0, 0.5))
    assert added <= FINALIZE_PEAK_BYTES, added


def test_fleet_finalize_narrows_a_crowded_bucket(traced):
    """Every RTT sample in one or two sketch buckets: the wanted bucket
    is narrowed by counting before anything is listed (it peaked at
    6.9 MiB when the whole bucket was listed and sorted)."""
    rng = random.Random(1)
    added = _finalize_peak(lambda: rng.uniform(0.0400, 0.0401),
                           lambda: rng.lognormvariate(-2.0, 0.5))
    assert added <= FINALIZE_PEAK_BYTES, added


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
                         fr.app.frame_recorder):
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


def _contended(duration: float):
    """A W2 tcp/copa cell with two CUBIC competitors over CoDel: what
    its builder holds outside the summary, and its competitor ACKs."""
    spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=duration,
                                                   seed=3),
                        duration=duration, seed=1, warmup=1.0,
                        protocol="tcp", cca="copa", competitors=2,
                        queue_kind="codel")
    builder = TopologyBuilder(spec)
    summary = builder.run()
    competitors = builder.forwarding.competitors
    assert len(competitors) == 2 and summary.flows
    for fr in competitors:
        assert fr.sender.rate_recorder is None
    acks = sum(fr.receiver.acks_sent for fr in competitors)
    held = _traced_now()
    del builder
    return held - _traced_now(), acks


def test_competitors_record_nothing(traced):
    held_short, acks_short = _contended(3.0)
    held_long, acks_long = _contended(6.0)
    assert acks_long > acks_short + 4000
    growth = (held_long - held_short) / (acks_long - acks_short)
    assert growth < BUILDER_BYTES_PER_COMPETITOR_ACK, (held_short, held_long)


def test_rate_recorder_holds_a_running_mean(traced):
    recorder = RateRecorder(1.0)
    recorder.record(0.5, 1e6)
    recorder.record(1.0, 1e6)
    before = _traced_now()
    for i in range(100_000):
        recorder.record(1.0 + i * 1e-3, 1e6 + i)
    held = _traced_now() - before
    assert held < RATE_RECORDER_BYTES, held
    assert recorder.mean_rate() > 1e6


def test_gcc_keeps_no_per_feedback_state(traced):
    gcc = GccController()

    def feedbacks(first: int, count: int) -> None:
        # Five 1200 B packets per 50 ms feedback over a steady 30 ms path.
        for k in range(first, first + count):
            now = k * 0.05
            gcc.on_feedback(now, [
                FeedbackPacketReport(5 * k + j, 1200, now - 0.04 + j * 0.008,
                                     now - 0.01 + j * 0.008)
                for j in range(5)])

    feedbacks(0, 1_000)     # every window full
    before = _traced_now()
    feedbacks(1_000, 10_000)
    held = _traced_now() - before
    assert held < GCC_BYTES_PER_FEEDBACK * 10_000, held
    assert gcc.last_signal is not None
