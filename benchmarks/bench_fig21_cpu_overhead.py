"""Fig. 21: CPU overhead of Zhuge vs concurrent flows.

Paper: two decade-old APs sustain 5 concurrent Zhuge flows. We measure
the per-packet wall-clock cost of the full Zhuge datapath and project
router-class utilization (DESIGN.md documents the substitution). The
claims preserved: cost grows ~linearly with flows, and five flows fit
in the budget.
"""

from repro.experiments.drivers.format import format_table, pct
from repro.experiments.drivers.overhead import (fig21_cpu_overhead,
                                                measure_component_costs,
                                                measure_per_packet_cost)


def test_fig21_cpu_overhead(once):
    rows = once(fig21_cpu_overhead, flow_counts=(1, 2, 3, 4, 5))
    table = [(r.router, r.flows, f"{r.per_packet_us:.1f}us",
              pct(r.projected_cpu_utilization, 0))
             for r in rows]
    print()
    print(format_table(
        "Fig. 21 — projected CPU utilization",
        ("router", "flows", "per-packet", "CPU"),
        table))

    per_router: dict[str, list] = {}
    for row in rows:
        per_router.setdefault(row.router, []).append(row)
    for router, series in per_router.items():
        series.sort(key=lambda r: r.flows)
        utils = [r.projected_cpu_utilization for r in series]
        # Monotone growth in flows, and 5 flows fit the budget.
        assert all(a <= b + 1e-9 for a, b in zip(utils, utils[1:])), router
        assert utils[-1] < 1.0, router


def test_per_component_cost_breakdown(once):
    """Where the per-packet budget goes: cost + counters per stage."""
    reports = once(measure_component_costs, packets=5000)
    table = [(r["stage"], f"{r['seconds_per_call'] * 1e6:.2f}us",
              f"{r['ops_per_sec']:,.0f}/s",
              r["stats"]["predictions"], r["stats"]["estimator_ops"])
             for r in reports]
    print()
    print(format_table(
        "Fig. 21 — per-component per-packet cost",
        ("stage", "cost", "throughput", "pred", "est-ops"),
        table))
    for report in reports:
        # Each stage must stay well under the 1 ms/packet budget the
        # Fig. 21 projection assumes.
        assert report["seconds_per_call"] < 0.001, report["stage"]
    # The estimators really ran: every data packet made a prediction and
    # touched all four estimators of the Fortune Teller.
    data = reports[0]["stats"]
    assert data["predictions"] == 5000
    assert data["estimator_ops"] >= 4 * 5000


def test_per_packet_cost_benchmark(benchmark):
    """Raw per-packet datapath cost (the quantity Fig. 21 scales)."""
    cost = benchmark.pedantic(measure_per_packet_cost,
                              kwargs=dict(packets=5000),
                              rounds=3, iterations=1)
    assert cost < 0.001  # well under 1 ms per packet even in Python
