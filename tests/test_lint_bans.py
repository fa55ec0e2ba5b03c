"""Names deleted on purpose may not come back.

One table of (grep flags, pattern, paths, reason), each checked with
``git grep`` over the tracked files; a hit fails with the reason. The
CI lint job runs this file alone (it needs no ``repro`` import:
``python -m pytest --noconftest tests/test_lint_bans.py``).
"""

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
#: This file spells out every pattern, so its own lines never count.
HERE = Path(__file__).resolve().relative_to(REPO_ROOT).as_posix()

BANS = {
    "one-result-type": (
        "-nwE", "ScenarioResult|FlowResult|FirstMileResult|from_flow",
        ("src", "tests", "examples", "benchmarks"),
        "ScenarioSummary is the one result type: no parallel result class "
        "or conversion may come back."),
    "post": (
        "-nwE", "tail_call|_ready", ("src", "tests"),
        "Simulator.post is the one zero-delay primitive: neither the "
        "inline tail call nor the now bucket may come back."),
    "tick-groups": (
        "-nE", r"[(, ]self\._fire\)", ("src",),
        "Timer ticks plant through tick groups: no tick may go back to an "
        "event of its own through schedule / call_at."),
    "tombstones": (
        "-nwE", "_compact|compactions|_note_cancel|add_sink", ("src",),
        "Cancelled events are tombstones the run loop skips: no heap "
        "compaction and no harness sink list may come back."),
    "no-sim-trace-hook": (
        "-nE", r"def (subscribe|emit)\(", ("src/repro/sim",),
        "No simulator-level trace hook may come back: components get "
        "their bus directly."),
    "sums-on-read": (
        "-nwE", "ExactFloatSum|as_integer_ratio", ("src",),
        "Windowed float sums are taken on read (math.fsum of the live "
        "window): no running big-int sum may come back to the datapath."),
    "cache-resume": (
        "-nE", "journal|checkpoint_every|to_state|from_state", ("src",),
        "The result cache is the one resume path: no campaign journal "
        "and no accumulator checkpoint may come back."),
    "run-specs": (
        "-nwE", "TopologyBuilder|keep_samples|evaluate_scheme",
        ("src/repro/experiments/drivers", "benchmarks/bench_*.py"),
        "Every scenario figure runs its specs through run_specs: no "
        "driver or bench loops over the builder itself, and no row keeps "
        "its samples on the side."),
    "one-datapath-loop": (
        "-nE", r"ZhugeAP\(|FortuneTeller\(|OutOfBandFeedbackUpdater\(|\.enqueue\(",
        ("src/repro/experiments/drivers/hotpath.py",
         "src/repro/experiments/drivers/obs_overhead.py"),
        "The hot-path bench and the tracing guard drive Fig. 21's one "
        "hand-driven datapath (overhead.datapath / spin): neither builds "
        "an AP or loops over a queue of its own."),
    "one-hotpath-entry": (
        "-nwE", "HotpathCostReport|run_hotpath_regression",
        ("src", "benchmarks/bench_*.py", "pyproject.toml", ".claude"),
        "The pytest bench is the one hot-path entry point and a stage "
        "cost is a plain dict: neither the standalone runner nor the "
        "report class may come back."),
}


def _in_work_tree() -> bool:
    try:
        probe = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                               cwd=REPO_ROOT, capture_output=True, text=True)
    except OSError:
        return False
    return probe.stdout.strip() == "true"


@pytest.mark.skipif(not _in_work_tree(), reason="needs a git checkout")
@pytest.mark.parametrize("name", list(BANS))
def test_banned_names_stay_out(name):
    flags, pattern, paths, reason = BANS[name]
    grep = subprocess.run(["git", "grep", flags, pattern, "--", *paths],
                          cwd=REPO_ROOT, capture_output=True, text=True)
    assert grep.returncode in (0, 1), grep.stderr  # 1: no match
    hits = [line for line in grep.stdout.splitlines()
            if not line.startswith(f"{HERE}:")]
    assert hits == [], f"{reason}\n" + "\n".join(hits)
