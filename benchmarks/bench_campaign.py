"""Campaign runner: pooled sweep timing + bit-identity + cache hits.

Times a small Fig. 11-style (scheme x seed) sweep through the process
pool, then asserts the two properties the campaign subsystem promises:
the pooled summaries are bit-identical to in-process execution, and a
warm re-run is served entirely from the content-addressed cache.
"""

from repro.campaign import ResultCache, execute_spec, run_campaign, run_specs
from repro.experiments.drivers.format import format_table
from repro.experiments.drivers.traces_eval import (SCHEMES_BY_NAME,
                                                   grid_specs)


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
