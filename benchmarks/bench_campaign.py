"""Campaign runner: pooled sweep timing + bit-identity + cache hits.

Times a small Fig. 11-style (scheme x seed) sweep through the process
pool, then asserts the two properties the campaign subsystem promises:
the pooled summaries are bit-identical to in-process execution, and a
warm re-run is served entirely from the content-addressed cache.

``test_campaign_journal_overhead`` guards the crash-safety tax: the
same sweep with the JSONL journal + checkpoint cadence enabled must
cost <= 3% extra wall time over the bare run (min of interleaved
rounds, so a noisy neighbour inflating one round cannot fake a
regression in either direction).  Full runs append the measurement to
``BENCH_hotpath.json``; ``REPRO_BENCH_SMOKE=1`` keeps a loose
structural bound only — on tiny smoke cells the per-cell fsync is not
amortized and a 3% bound would be pure noise.
"""

import os
import time
from pathlib import Path

from repro.campaign import ResultCache, execute_spec, run_campaign, run_specs
from repro.experiments.drivers.format import format_table
from repro.experiments.drivers.hotpath import write_results
from repro.experiments.drivers.traces_eval import (SCHEMES_BY_NAME,
                                                   grid_specs)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Acceptance bound: journal + checkpoint may cost at most 3% wall time.
MAX_OVERHEAD = 0.03


def _sweep_specs(duration=20.0, seeds=(1, 2)):
    return grid_specs([("W2", scheme, SCHEMES_BY_NAME[scheme])
                       for scheme in ("Gcc+FIFO", "Gcc+Zhuge")],
                      duration, seeds)


def test_campaign_pool_and_cache(once, tmp_path):
    specs = _sweep_specs()
    cache = ResultCache(root=tmp_path)

    serial = [execute_spec(spec).as_dict() for spec in specs]
    pooled = once(run_specs, specs, jobs=2, cache=cache)
    assert [s.as_dict() for s in pooled] == serial

    warm = run_campaign(specs, jobs=2, cache=cache)
    assert warm.cached == len(specs)
    assert [c.summary.as_dict() for c in warm.cells] == serial

    print()
    print(format_table(
        f"campaign — {len(specs)} cells (W2, 20 s, 2 schemes x 2 seeds)",
        ("mode", "wall", "cached"),
        [("pool jobs=2", "benchmark timer", "0"),
         ("warm re-run", f"{warm.wall_s * 1e3:.0f} ms",
          f"{warm.cached}/{len(specs)}")]))


def _journaled_wall(specs, cache_root, journal_path=None):
    """Wall time of one cold serial campaign (fresh cache root each
    call — the CLI default config); the journaled variant mirrors the
    city driver's use: per-cell record + checkpoint cadence."""
    folded = []
    kwargs = {}
    if journal_path is not None:
        if journal_path.exists():
            journal_path.unlink()
        kwargs = dict(journal=journal_path,
                      checkpoint_state=lambda: {"folded": list(folded)},
                      checkpoint_every=2)
    start = time.perf_counter()
    result = run_campaign(specs, cache=ResultCache(root=cache_root),
                          consume=lambda c: folded.append(c.index),
                          **kwargs)
    wall = time.perf_counter() - start
    assert result.failed == 0
    return wall


def test_campaign_journal_overhead(tmp_path):
    if SMOKE:
        specs, rounds, bound = _sweep_specs(duration=6.0, seeds=(1,)), 2, 0.5
    else:
        specs, rounds, bound = _sweep_specs(), 3, MAX_OVERHEAD

    # Interleave the two configurations so a load spike hits both; the
    # min over rounds is the least-perturbed sample of each.
    bare, journaled = [], []
    for round_index in range(rounds):
        bare.append(_journaled_wall(
            specs, tmp_path / f"cache-bare-{round_index}"))
        journaled.append(_journaled_wall(
            specs, tmp_path / f"cache-journal-{round_index}",
            tmp_path / "bench.journal"))
    bare_s, journaled_s = min(bare), min(journaled)
    overhead = journaled_s / bare_s - 1.0

    print()
    print(format_table(
        f"campaign journal overhead — {len(specs)} cells, "
        f"min of {rounds} interleaved rounds",
        ("mode", "wall", "overhead"),
        [("bare", f"{bare_s * 1e3:.0f} ms", "—"),
         ("journal + checkpoint", f"{journaled_s * 1e3:.0f} ms",
          f"{overhead * 100:+.2f}%")]))

    if not SMOKE:
        write_results(RESULTS_PATH, {
            "note": "campaign journal+checkpoint overhead "
                    "(min of interleaved rounds)",
            "campaign_journal": {
                "cells": len(specs),
                "rounds": rounds,
                "checkpoint_every": 2,
                "bare_s": bare_s,
                "journaled_s": journaled_s,
                "overhead_pct": overhead * 100,
            }})
    assert overhead <= bound, (
        f"journal overhead {overhead * 100:.2f}% exceeds "
        f"{bound * 100:.0f}% bound ({journaled_s:.3f}s vs {bare_s:.3f}s)")
