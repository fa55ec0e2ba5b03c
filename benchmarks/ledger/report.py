"""Turn rounds into metrics, print them, and compare two reports.

``BENCHMARK.json`` at the repository root is the registry: metric
names, units, which direction is better and the regression bounds are
read from it, never repeated here.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from layers import LAYERS

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = "ledger/v1"
#: A round whose wall time exceeds its CPU time by more than this share
#: ran beside a busy neighbour.  It is flagged, and kept: CPU time is
#: the metric.
WALL_OVER_CPU_FLAG = 1.10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def round_checks(rounds: list) -> list:
    """``(label, passed)`` for every output check of every round."""
    checks = []
    for index, result in enumerate(rounds):
        for name, passed in result["checks"].items():
            checks.append((f"round {index + 1}: {name}", passed))
        if index:
            checks.append((f"round {index + 1}: digest_repeats",
                           result["digest"] == rounds[0]["digest"]))
    return checks


def summarise(timed: list, traced: dict | None) -> dict:
    """One workload's entry of the report.

    ``timed`` are the rounds measured with tracing off, in run order;
    ``traced`` is the extra round under cProfile, if one was made.
    """
    checks = round_checks(timed + ([traced] if traced else []))
    failed = [label for label, passed in checks if not passed]
    per_round = {
        "cpu_s": [r["cpu_s"] for r in timed],
        "pkts_per_cpu_s": [r["packets"] / r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "ok_share": [1.0 - len(failed) / len(checks)],
        "events_per_pkt": [r["events"] / r["packets"] for r in timed],
        "sim_delay_p99_ms": [r["sim_delay_p99_ms"] for r in timed],
        "sim_goodput_mbps": [r["sim_goodput_mbps"] for r in timed],
    }
    entry = {
        "digest": timed[0]["digest"],
        "event_model": timed[0]["event_model"],
        "packets": timed[0]["packets"],
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "flagged_rounds": [
            index + 1 for index, r in enumerate(timed)
            if r["wall_s"] / r["cpu_s"] > WALL_OVER_CPU_FLAG],
        "end_to_end": {
            name: {"values": values, "median": statistics.median(values),
                   "min": min(values), "max": max(values), "n": len(values)}
            for name, values in per_round.items()},
    }
    if traced is not None:
        cpu_s = entry["end_to_end"]["cpu_s"]["median"]
        wall_s = statistics.median(r["wall_s"] for r in timed)
        entry["per_layer"] = {
            **traced["layers"], **traced["counters"],
            "sim.events": traced["events"],
            "bench.wall_s": wall_s,
            "bench.wall_over_cpu": wall_s / cpu_s,
            "bench.trace_overhead_ratio": traced["cpu_s"] / cpu_s,
        }
    return entry


# -- printing ------------------------------------------------------------------


def print_report(report: dict) -> None:
    spec = load_spec()
    header = report["header"]
    print(f"ledger  seed={header['seed']} rounds={header['rounds']} "
          f"sizes={'smoke' if header['smoke'] else 'full'} "
          f"event_model={header['event_model']} git={header['git_sha'][:12]} "
          f"python={header['python']} nproc={header['nproc']} "
          f"load={header['loadavg_start']}")
    print("\n== end to end (tracing off): median [min .. max] n ==")
    for name, entry in report["workloads"].items():
        print(f"{name}  digest={entry['digest'][:12]} "
              f"checks={entry['attempted'] - entry['failed']}"
              f"/{entry['attempted']}")
        for label in entry["failed_checks"]:
            print(f"  FAILED {label}")
        if entry["flagged_rounds"]:
            print(f"  wall > {WALL_OVER_CPU_FLAG:.2f} x cpu in rounds "
                  f"{entry['flagged_rounds']} (kept: cpu is the metric)")
        for metric in spec["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<18} {cell['median']:>14.6g} "
                  f"[{cell['min']:.6g} .. {cell['max']:.6g}] "
                  f"n={cell['n']} {metric['unit']}")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for name, entry in report["workloads"].items():
        layers = entry.get("per_layer")
        if layers is None:
            continue
        print(f"\n== per layer, traced pass: {name} "
              "(cProfile inflates call-heavy layers) ==")
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  {'<layer>.':<22} {'self_s':>9} {'share':>6} "
              f"{'calls':>10} {'self_us_per_pkt':>16}")
        for layer in LAYERS:
            self_s = layers[f"{layer}.self_s"]
            print(f"  {layer:<22} {self_s:>9.4f} {self_s / total:>6.1%} "
                  f"{layers[f'{layer}.calls']:>10d} "
                  f"{layers[f'{layer}.self_us_per_pkt']:>16.4f}")
        for metric, value in layers.items():
            if metric.split(".")[-1] in ("self_s", "calls", "self_us_per_pkt"):
                continue
            print(f"  {metric:<38} {value:>14.6g} {units.get(metric, '')}")


# -- compare -------------------------------------------------------------------


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """``better | same | worse | unresolved`` for B against A.

    With run-to-run spread inside the bound the medians decide.  With
    spread beyond it, only complete separation of the two sets of runs
    counts; overlapping runs are unresolved, not unchanged.  Identical
    samples (a report against itself, a metric that repeats exactly) are
    evidence of nothing else, whatever their spread.
    """
    if sorted(a) == sorted(b):
        return "same"
    sign = -1.0 if better == "higher" else 1.0
    if max(spread(a), spread(b)) > bound:
        worse_a, worse_b = [sign * v for v in a], [sign * v for v in b]
        if min(worse_b) > max(worse_a):
            return "worse"
        if max(worse_b) < min(worse_a):
            return "better"
        return "unresolved"
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / abs(base)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per workload x end-to-end metric; 1 on any worse."""
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for report in (a, b):
        if report.get("schema") != SCHEMA:
            raise SystemExit(f"not a {SCHEMA} report")
    print(f"A = {path_a} (git {a['header']['git_sha'][:12]})\n"
          f"B = {path_b} (git {b['header']['git_sha'][:12]})")
    print(f"{'workload':<20} {'metric':<18} {'A median':>12} {'A iqr':>7} "
          f"{'B median':>12} {'B iqr':>7} {'B/A':>8} {'bound':>6}  verdict")
    worse = 0
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<20} missing from B")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            cell_a = entry_a["end_to_end"][metric["name"]]
            cell_b = entry_b["end_to_end"][metric["name"]]
            result = verdict(cell_a["values"], cell_b["values"],
                             metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{name:<20} {metric['name']:<18} "
                  f"{cell_a['median']:>12.6g} "
                  f"{spread(cell_a['values']):>7.2%} "
                  f"{cell_b['median']:>12.6g} "
                  f"{spread(cell_b['values']):>7.2%} "
                  f"{cell_b['median'] / cell_a['median']:>8.4f} "
                  f"{metric['bound']:>6.1%}  {result}")
    return 1 if worse else 0
