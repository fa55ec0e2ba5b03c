"""Layered performance ledger: one command, four workloads.

    python benchmarks/ledger/run.py [--seed 1] [--rounds 5] [--out report.json]
        Every workload, rounds interleaved (A,B,C,D,A,B,...), then one
        traced round each; prints every metric and writes the report.

    python benchmarks/ledger/run.py compare A.json B.json
        B against A per workload x end-to-end metric, judged with the
        bounds in BENCHMARK.json; exits 1 on any ``worse``.

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        One workload for S seconds of timed CPU; the last line of
        output is the JSON object BENCHMARK.json's contract asks for.

Host cost is CPU time of a fresh single-threaded child per round, run
one at a time; see README.md for the protocol and what each workload
is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import (ROOT, SCHEMA, compare, load_spec,  # noqa: E402
                    print_report, summarise)

#: Round scratch (the city's result cache, ``REPRO_CACHE_DIR``) lives
#: inside the checkout, never in ``~/.cache`` or the system temp dir,
#: and is removed when the round ends.
SCRATCH = ROOT / ".ledger_tmp"


class LedgerError(RuntimeError):
    """A round produced no result."""


def run_round(workload: str, seed: int, smoke: bool, profile: bool) -> dict:
    """One (workload, round) in a fresh child process."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp / "campaign-cache"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cell.py"), "--workload", workload,
             "--seed", str(seed), "--smoke", str(int(smoke)),
             "--profile", str(int(profile)), "--tmp", str(tmp)],
            env=env, stdout=subprocess.PIPE, text=True, check=False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:     # another run's round is still in there
            pass
    if proc.returncode != 0:
        raise LedgerError(f"{workload}: round exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def ledger(seed: int, rounds: int, smoke: bool, trace: bool,
           out: Path | None) -> int:
    """All workloads, interleaved rounds, traced pass, report."""
    names = [w["name"] for w in load_spec()["workloads"]]
    header = {"git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
              "seed": seed, "rounds": rounds, "smoke": smoke}
    timed: dict = {name: [] for name in names}
    for index in range(rounds):
        for name in names:
            result = run_round(name, seed, smoke, profile=False)
            timed[name].append(result)
            print(f"round {index + 1}/{rounds} {name}: "
                  f"cpu {result['cpu_s']:.3f} s, wall {result['wall_s']:.3f} s",
                  file=sys.stderr)
    workloads = {}
    for name in names:
        traced = run_round(name, seed, smoke, profile=True) if trace else None
        workloads[name] = summarise(timed[name], traced)
    header["event_model"] = workloads[names[0]]["event_model"]
    report = {"schema": SCHEMA, "header": header, "workloads": workloads}
    print_report(report)
    if out is not None:
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(w["failed"] for w in workloads.values()) else 0


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The BENCHMARK.json contract: one workload, one JSON line."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {workload!r}")
    timed = [run_round(workload, seed, smoke=False, profile=False)]
    traced = None
    if trace:
        traced = run_round(workload, seed, smoke=False, profile=True)
    else:
        while sum(r["cpu_s"] for r in timed) < seconds:
            timed.append(run_round(workload, seed, smoke=False,
                                   profile=False))
    entry = summarise(timed, traced)
    if trace:
        # A counter that does not exist on this workload reads 0.
        metrics = {m["name"]: {"value": entry["per_layer"].get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": entry["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for label in entry["failed_checks"]:
        print(f"FAILED {label}", file=sys.stderr)
    print(json.dumps({"correct": entry["failed"] == 0,
                      "attempted": entry["attempted"],
                      "failed": entry["failed"], "metrics": metrics}))
    return 0


def main(argv: list) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, measures nothing")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the per-layer cProfile pass")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no simulator source under {ROOT / 'src'}")
    try:
        if args.workload is not None:
            return one_run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        return ledger(args.seed, args.rounds, args.smoke, not args.no_trace,
                      args.out)
    except LedgerError as exc:
        raise SystemExit(f"ledger: {exc}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
