"""Hot-path perf-regression harness (BENCH_hotpath.json).

Guards the amortized-O(1) rewrite of the sliding-window estimators:
each optimized estimator must beat its naive re-scan reference (the
seed implementation, kept in ``repro.core.sliding_window_reference``)
by >= 3x on query throughput, and the full AP datapath must scale
near-linearly from 1 to 100 concurrent flows.  The end-to-end family
drives the whole simulated datapath (scheduler, WAN link, AP, AMPDU
txops, ACK path) and is the number the ROADMAP's packets/sec target is
measured against.  Every run appends its numbers to
``BENCH_hotpath.json`` at the repo root so future PRs have a perf
trajectory to compare against (see also
``benchmarks/run_hotpath_regression.py`` for running this outside
pytest).

Set ``REPRO_BENCH_SMOKE=1`` for check mode (the CI ``bench-smoke``
job): small workloads, no trajectory write, and only the relative /
structural guards — absolute ops/sec floors would be hopelessly flaky
on shared CI runners.
"""

import os
from pathlib import Path

from repro.experiments.drivers.format import format_table
from repro.experiments.drivers.hotpath import (run_hotpath_bench,
                                               write_results)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
# The acceptance floor: optimized DelayDeltaHistory.sample and
# DequeueIntervalEstimator.average_interval must be >= 3x the naive
# re-scan throughput.
MIN_SPEEDUP = 3.0
GUARDED = ("DelayDeltaHistory.sample",
           "DequeueIntervalEstimator.average_interval")
#: Check mode: CI smoke run — small counts, no BENCH write.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def test_hotpath_regression(once):
    if SMOKE:
        payload = once(run_hotpath_bench, queries=4_000, packets=4_000,
                       e2e_packets=6_000, e2e_repeats=2)
    else:
        payload = once(run_hotpath_bench, queries=20_000, packets=20_000)
        write_results(RESULTS_PATH, payload)

    micro = {row["name"]: row for row in payload["micro"]}
    table = [(name, f"{row['optimized_ops_per_sec']:,.0f}/s",
              f"{row['reference_ops_per_sec']:,.0f}/s",
              f"{row['speedup']:.1f}x")
             for name, row in micro.items()]
    print()
    print(format_table(
        "Hot path — optimized vs naive re-scan (window fill 256)",
        ("estimator", "optimized", "reference", "speedup"),
        table))

    datapath = payload["datapath"]
    table = [(d["flows"], f"{d['predict_ops_per_sec']:,.0f}/s",
              f"{d['on_data_packet_ops_per_sec']:,.0f}/s",
              f"{d['ack_delay_ops_per_sec']:,.0f}/s")
             for d in datapath]
    print(format_table(
        "Hot path — datapath throughput vs concurrent flows",
        ("flows", "predict", "on_data_packet", "ack_delay"),
        table))

    e2e = payload["end_to_end"]
    print(format_table(
        "Hot path — end-to-end simulated datapath",
        ("packets", "delivered", "events/pkt", "packets/s", "events/s"),
        [(e2e["packets"], e2e["delivered"],
          f"{e2e['events_per_packet']:.2f}",
          f"{e2e['packets_per_sec']:,.0f}/s",
          f"{e2e['events_per_sec']:,.0f}/s")]))

    for name in GUARDED:
        assert micro[name]["speedup"] >= MIN_SPEEDUP, (
            f"{name}: {micro[name]['speedup']:.2f}x < {MIN_SPEEDUP}x")

    # Per-packet cost must not blow up with concurrent flows (Fig. 21's
    # near-linear scaling claim): 100 flows may cost at most 3x the
    # per-packet time of 1 flow on the prediction path.
    by_flows = {d["flows"]: d for d in datapath}
    assert (by_flows[100]["on_data_packet_ops_per_sec"]
            >= by_flows[1]["on_data_packet_ops_per_sec"] / 3.0)

    # End-to-end structural guards on the best-of-N cell: every data
    # packet must survive the trip (the paced sender stays under
    # capacity — a drop means the batching changed queue occupancy),
    # and dispatch must stay within its event budget per packet.
    assert e2e["delivered"] == e2e["packets"], (
        f"end-to-end dropped packets: {e2e['delivered']}/{e2e['packets']}")
    assert e2e["events_per_packet"] < 3.0, (
        f"event amplification regressed: "
        f"{e2e['events_per_packet']:.2f} events/packet >= 3.0")

    # GREEN-steady controller cell: on a healthy datapath the control
    # loop must never leave GREEN (no voter flaps), drop nothing, and
    # — off shared CI runners — cost under its pinned ceiling.
    ctrl = payload["controller"]
    print(format_table(
        "Hot path — GREEN-steady controller overhead (end-to-end)",
        ("packets", "watchdog-only", "controlled", "overhead", "state"),
        [(ctrl["packets"], f"{ctrl['plain_best_pps']:,.0f}/s",
          f"{ctrl['controlled_best_pps']:,.0f}/s",
          f"{ctrl['overhead_ratio'] * 100:.1f}%",
          ctrl["controller_state"])]))
    assert ctrl["controller_state"] == "green", (
        f"controller left GREEN on a healthy datapath: "
        f"{ctrl['controller_state']}")
    assert ctrl["control_transitions"] == 0
    assert ctrl["delivered"] == ctrl["packets"]
    if not SMOKE:
        assert ctrl["overhead_ratio"] < ctrl["ceiling"], (
            f"GREEN-steady controller overhead "
            f"{ctrl['overhead_ratio'] * 100:.1f}% >= "
            f"{ctrl['ceiling'] * 100:.0f}%")
        assert RESULTS_PATH.exists()
