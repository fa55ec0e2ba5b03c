"""Extension bench: first-mile Zhuge (§6 discussion).

Not a paper figure — the paper only argues the mechanism transfers to
the client side. We verify: with the uplink wireless as the bottleneck,
the client-local fortune loop (zero network traversal) reacts to uplink
collapses at least as fast as waiting for server feedback, without
giving up steady-state bitrate.
"""

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.experiments.drivers.format import format_table, mbps, pct, seconds
from repro.experiments.firstmile import run_first_mile


def run_cases():
    rows = []
    # Trace-driven uplink.
    trace = TraceSpec.for_family("W1", duration=40, seed=2)
    for zhuge in (False, True):
        result = run_first_mile(ScenarioSpec(trace=trace, duration=40),
                                client_zhuge=zhuge)
        rows.append(("W1 uplink", "client-zhuge" if zhuge else "baseline",
                     result.rtt.tail_ratio(), result.frames.delayed_ratio(),
                     result.flows[0].mean_bitrate_bps, None))
    # Single uplink collapse.
    collapse = TraceSpec.drop(20e6, k=10, drop_at=12.0, duration=27.0)
    for zhuge in (False, True):
        result = run_first_mile(ScenarioSpec(trace=collapse, duration=27,
                                             warmup=2.0, max_bps=8e6),
                                client_zhuge=zhuge)
        rows.append(("10x collapse", "client-zhuge" if zhuge else "baseline",
                     result.rtt.tail_ratio(), result.frames.delayed_ratio(),
                     result.flows[0].mean_bitrate_bps,
                     result.rtt.degradation_duration(0.2, start=12.0)))
    return rows


def test_ext_firstmile(once):
    rows = once(run_cases)
    table = [(scenario, scheme, pct(tail), pct(delayed), mbps(rate),
              seconds(dur) if dur is not None else "-")
             for scenario, scheme, tail, delayed, rate, dur in rows]
    print()
    print(format_table(
        "Extension — first-mile (uplink) Zhuge",
        ("scenario", "scheme", "RTT>200ms", "frame>400ms", "bitrate",
         "drop degr."),
        table))

    by_key = {(r[0], r[1]): r for r in rows}
    base = by_key[("10x collapse", "baseline")]
    zhuge = by_key[("10x collapse", "client-zhuge")]
    assert zhuge[5] <= base[5] + 0.25       # reacts at least as fast
    w1_base = by_key[("W1 uplink", "baseline")]
    w1_zhuge = by_key[("W1 uplink", "client-zhuge")]
    assert w1_zhuge[4] >= 0.5 * w1_base[4]  # bitrate kept
    assert w1_zhuge[2] <= w1_base[2] + 0.02
