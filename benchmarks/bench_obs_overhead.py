"""Disabled-tracing overhead guard (the ``repro.obs`` <2% contract).

The live datapath with ``trace = None`` must cost at most
``OVERHEAD_CEILING`` (1.02x) of the same classes with their probe sites
cut out, measured over paired interleaved rounds (see
``repro.experiments.drivers.obs_overhead`` for how the probe-free side
is derived from the live source and why paired-in-process is the only
measurement that survives this container's +-15% run-to-run jitter).
A second test injects the cheapest enabled probe and requires the same
statistic to trip the ceiling, so the guard cannot go blind unnoticed.

Set ``REPRO_BENCH_SMOKE=1`` for check mode (the CI ``bench-smoke``
job): fewer rounds and no ``BENCH_hotpath.json`` write.
"""

import os
from pathlib import Path

from repro.experiments.drivers.format import format_table
from repro.experiments.drivers.hotpath import write_results
from repro.experiments.drivers.obs_overhead import (OVERHEAD_CEILING,
                                                    run_overhead_bench)
from repro.obs.bus import TraceBus

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
#: Check mode: CI smoke run — fewer rounds, no BENCH write.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
REPEATS = 64 if SMOKE else 192


def test_obs_disabled_overhead(once):
    result = once(run_overhead_bench, repeats=REPEATS)
    if not SMOKE:
        write_results(RESULTS_PATH, {"obs_overhead": result})

    print()
    print(format_table(
        "Tracing disabled — live datapath vs its probe-free twins",
        ("packets", "rounds", "probe sites", "instrumented", "probe-free",
         "overhead", "median"),
        [(result["packets"], result["repeats"], result["probe_sites_cut"],
          f"{result['instrumented_disabled_best_s'] * 1e3:.2f} ms",
          f"{result['probe_free_best_s'] * 1e3:.2f} ms",
          f"{(result['overhead_ratio'] - 1) * 100:+.2f}%",
          f"{(result['median_ratio'] - 1) * 100:+.2f}%")]))

    assert result["probe_sites_cut"] > 0
    assert result["overhead_ratio"] < OVERHEAD_CEILING, (
        f"disabled-tracing overhead {result['overhead_ratio']:.4f}x "
        f"exceeds the {OVERHEAD_CEILING}x ceiling")


def test_injected_probe_trips_the_ceiling(once):
    """Self-test: a bus that filters every event out still costs a call
    per probe site (>= 5% here), and the guard must see it."""
    result = once(run_overhead_bench, repeats=REPEATS,
                  probe=TraceBus(None, categories=()))
    print(f"\ninjected probe reads {result['overhead_ratio']:.4f}x")
    assert result["overhead_ratio"] > OVERHEAD_CEILING
