"""Per-figure experiment drivers.

Each module reproduces one (or a family of) evaluation artifacts from
the paper and returns structured rows; ``benchmarks/`` wraps these in
pytest-benchmark targets and prints the tables. A scenario figure is a
spec list and a row reducer joined by one ``run_specs`` call; its
summaries are cut per row by ``traces_eval.seed_split`` (DESIGN.md,
"Figure drivers").
"""

from repro.experiments.drivers.format import format_table

__all__ = ["format_table"]
