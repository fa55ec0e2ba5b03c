"""Memory guard: result series are retained as packed C doubles.

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
"""

import gc
import json
import tracemalloc

import pytest

from repro.campaign import ScenarioSpec, TraceSpec
from repro.campaign.summary import ScenarioSummary
from repro.city.merge import FleetAccumulator
from repro.topology.builder import TopologyBuilder

SUMMARY_BYTES_PER_RTT_SAMPLE = 45
FLEET_BYTES_PER_SAMPLE = 12


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
    spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=8.0,
                                                   seed=3),
                        duration=8.0, seed=1, warmup=2.0, ap_mode="zhuge",
                        protocol="rtp", cca="gcc", rtc_flows=2)
    # The builder dies with this expression.
    return TopologyBuilder(spec).run()


def test_summary_retains_packed_series(traced):
    summary = _headline_summary()
    rtt_samples = sum(len(flow.rtt_values) for flow in summary.flows)
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
