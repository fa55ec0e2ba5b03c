"""Ablation: bursty vs paced frame transmission (§3.1).

The paper motivates qShort/maxBurstSize with the observation that RTC
senders burst each frame's packets out together. This ablation runs the
same trace with bursty and paced senders and reports (a) the Fortune
Teller's accuracy and (b) end-to-end tails — pacing smooths arrivals,
shrinking the transient the estimators must capture.
"""

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.experiments.drivers.format import format_table, ms, pct
from repro.metrics.stats import percentile
from repro.topology.builder import TopologyBuilder


def run_cases(duration=40.0, seed=1):
    trace = TraceSpec.for_family("W1", duration=duration, seed=seed)
    rows = []
    for paced in (False, True):
        spec = ScenarioSpec(trace=trace, protocol="rtp",
                            ap_mode="zhuge", duration=duration,
                            seed=seed, record_predictions=True,
                            paced_sender=paced)
        result = TopologyBuilder(spec).run()
        errors = [abs(p - a) for p, a in zip(result.predicted,
                                             result.actual)]
        rows.append(("paced" if paced else "bursty",
                     percentile(errors, 50) if errors else 0.0,
                     percentile(errors, 90) if errors else 0.0,
                     result.rtt.tail_ratio(),
                     result.frames.delayed_ratio()))
    return rows


def test_ablation_burstiness(once):
    rows = once(run_cases)
    table = [(name, ms(med, 2), ms(p90, 1), pct(tail), pct(delayed))
             for name, med, p90, tail, delayed in rows]
    print()
    print(format_table(
        "Ablation — bursty vs paced sender (Zhuge AP, trace W1)",
        ("sender", "median |err|", "P90 |err|", "RTT>200ms",
         "frame>400ms"),
        table))
    by_name = {r[0]: r for r in rows}
    # Both sending patterns must keep the median prediction error small
    # (the burst corrections exist precisely to absorb burstiness).
    assert by_name["bursty"][1] < 0.020
    assert by_name["paced"][1] < 0.020
