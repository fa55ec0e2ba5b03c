#!/usr/bin/env python
"""Alternating paired ledger rounds between two checkouts.

    python benchmarks/paired_rounds.py DIR_A DIR_B --workload W --seed N [--n 10]

``DIR_A`` is the parent checkout, ``DIR_B`` the change.  Each pair runs
one fresh-child round of ``W`` per side through that checkout's own
``benchmarks/ledger/cell.py`` (so each side is measured by the bench
code it ships), in a scratch directory made for the round, and the
side that goes first alternates from pair to pair so a drifting host
charges both sides alike.  Prints each side's median and quartiles,
the win count and a verdict, and appends one record — both shas, every
pair's samples, the verdict — to ``BENCH_ledger.json`` at the root of
the checkout this file lives in.

The verdict is the ledger's rule for claiming a gain: ``better`` when B
wins at least nine tenths of the pairs (ties count for neither side)
and the medians differ by more than A's own interquartile range;
``worse`` is the mirror image; anything else is ``unresolved``.  The
columns a simulator change must not move (digest, packets and the two
``sim_*`` columns) are compared for exact equality.  The engine's
dispatch count may move, but must repeat exactly on every round of
each side; both sides' counts are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "ledger-pairs/v1"
#: Lower is better for each of these; ``cpu_s`` carries the verdict.
TIMED = ("cpu_s", "peak_rss_mb", "setup_s")
#: Equal on both sides and on every round.
EXACT = ("digest", "packets", "sim_delay_p99_ms", "sim_goodput_mbps")
#: Engine dispatches: telemetry a change may move on purpose, but a
#: pure function of code and seed, so each side repeats exactly.
COUNTS = ("events",)


def run_round(checkout: Path, workload: str, seed: int) -> dict:
    """One fresh-child round of ``workload`` in ``checkout``."""
    scratch = checkout / ".ledger_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp / "campaign-cache"))
    try:
        proc = subprocess.run(
            [sys.executable, str(checkout / "benchmarks/ledger/cell.py"),
             "--workload", workload, "--seed", str(seed), "--tmp", str(tmp)],
            env=env, stdout=subprocess.PIPE, text=True, check=False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:     # another run's round is still in there
            pass
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {workload} round exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_state(checkout: Path) -> dict:
    """The checkout's commit, and whether its tree differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": "unknown", "dirty": False}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(a: list, b: list) -> dict:
    """B against A on one lower-is-better metric, pair by pair."""
    wins = sum(1 for x, y in zip(a, b) if y < x)
    losses = sum(1 for x, y in zip(a, b) if y > x)
    qa, qb = quartiles(a), quartiles(b)
    gap = qa["median"] - qb["median"]
    iqr = qa["q3"] - qa["q1"]
    needed = 0.9 * len(a)
    if wins >= needed and gap > iqr:
        verdict = "better"
    elif losses >= needed and -gap > iqr:
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {"a": qa, "b": qb, "wins": wins, "losses": losses,
            "pairs": len(a), "median_gap": gap, "a_iqr": iqr,
            "ratio": qb["median"] / qa["median"], "verdict": verdict}


def paired_rounds(dir_a: Path, dir_b: Path, workload: str, seed: int,
                  n: int) -> dict:
    sides = {"a": dir_a, "b": dir_b}
    rounds: dict = {"a": [], "b": []}
    for index in range(n):
        for side in ("ab", "ba")[index % 2]:
            rounds[side].append(run_round(sides[side], workload, seed))
        a, b = rounds["a"][-1], rounds["b"][-1]
        print(f"pair {index + 1}/{n}: A {a['cpu_s']:.3f} s, "
              f"B {b['cpu_s']:.3f} s", file=sys.stderr)
    exact = {name: all(ra[name] == rb[name] == rounds["a"][0][name]
                       for ra, rb in zip(rounds["a"], rounds["b"]))
             for name in EXACT}
    counts = {name: {side: sorted({r[name] for r in rounds[side]})
                     for side in sides}
              for name in COUNTS}
    checks_ok = all(all(r["checks"].values())
                    for side in rounds.values() for r in side)
    metrics = {name: judge([r[name] for r in rounds["a"]],
                           [r[name] for r in rounds["b"]])
               for name in TIMED}
    return {
        "workload": workload, "seed": seed,
        "a": git_state(dir_a), "b": git_state(dir_b),
        "loadavg": os.getloadavg(),
        "samples": {name: [[ra[name], rb[name]]
                           for ra, rb in zip(rounds["a"], rounds["b"])]
                    for name in TIMED},
        "metrics": metrics, "verdict": metrics["cpu_s"]["verdict"],
        "exact_equal": exact, "packets": rounds["a"][0]["packets"],
        "counts": counts, "checks_ok": checks_ok,
    }


def append_record(path: Path, record: dict) -> None:
    doc = (json.loads(path.read_text()) if path.exists()
           else {"schema": SCHEMA, "runs": []})
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path, help="parent checkout")
    parser.add_argument("dir_b", type=Path, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, default=10, help="pairs to run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ledger.json")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be at least 2 (quartiles need two pairs)")
    record = paired_rounds(args.dir_a.resolve(), args.dir_b.resolve(),
                           args.workload, args.seed, args.n)
    append_record(args.out, record)
    print(f"{args.workload} seed {args.seed}: "
          f"A {record['a']['sha'][:7]} vs B {record['b']['sha'][:7]}"
          f"{' (dirty)' if record['b']['dirty'] else ''}")
    for name, m in record["metrics"].items():
        print(f"  {name:<12} A {m['a']['median']:.3f} "
              f"[{m['a']['q1']:.3f}, {m['a']['q3']:.3f}]  "
              f"B {m['b']['median']:.3f} "
              f"[{m['b']['q1']:.3f}, {m['b']['q3']:.3f}]  "
              f"x{m['ratio']:.3f}  B wins {m['wins']}/{m['pairs']}  "
              f"gap {m['median_gap']:+.3f} vs A IQR {m['a_iqr']:.3f}  "
              f"{m['verdict']}")
    moved = [name for name, same in record["exact_equal"].items() if not same]
    print(f"  exact columns: {'all equal' if not moved else 'MOVED ' + str(moved)}"
          f"; checks {'ok' if record['checks_ok'] else 'FAILED'}")
    for name, per_side in record["counts"].items():
        shown = {side: (f"{values[0]} ({values[0] / record['packets']:.4f}"
                        f"/pkt)" if len(values) == 1
                        else f"NOT REPEATED {values}")
                 for side, values in per_side.items()}
        print(f"  {name:<12} A {shown['a']}  B {shown['b']}")
    print(f"  verdict (cpu_s): {record['verdict']}; appended to {args.out}")
    repeated = all(len(values) == 1 for per_side in record["counts"].values()
                   for values in per_side.values())
    return 0 if not moved and repeated and record["checks_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
