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
        ("tests/test_cost_bounds.py",),
        "The cost bounds drive Fig. 21's one hand-driven datapath "
        "(overhead.datapath / spin): no guard builds an AP or loops over "
        "a queue of its own."),
    "one-hotpath-entry": (
        "-nwE", "HotpathCostReport|run_hotpath_regression|run_hotpath_bench|"
        "bench_end_to_end|run_overhead_bench|REPRO_BENCH_SMOKE|"
        "sliding_window_reference",
        ("src", "benchmarks", "pyproject.toml", ".claude", ".github"),
        "Per-packet cost is bounded by exact bytecode counts in "
        "tests/test_cost_bounds.py and timed by the ledger: no wall-clock "
        "hot-path harness, smoke knob, standalone runner, report class or "
        "in-src reference estimator may come back."),
    "one-stream-sender": (
        "-nE", r"def (write|_send_one|_update_rtt|_arm_rto)\(|TwccFeedback\(",
        ("src/repro/transport/tcp.py", "src/repro/transport/quic.py",
         "src/repro/core"),
        "TCP and QUIC share StreamSender's write buffer, MSS chunking, "
        "RTT smoothing and timer arming, and transport/rtp.py's "
        "twcc_packet is the one TWCC report builder: no copy may come "
        "back."),
    "one-trace-path": (
        "-nE", "FlightRecorder|harness_event|ring_size|parse_events|"
        r"_cmd_trace_events|def (subscribe|unsubscribe|publish)\(",
        ("src",),
        "A traced run keeps one event list on its TraceBus and `run "
        "--trace-out` is the one way to trace a scenario: no ring buffer, "
        "subscriber fan-out, process-level event channel, category "
        "parser or second trace command may come back."),
    "one-control-setting": (
        "-nwE", "ControllerConfig|SteeringConfig|policy_for",
        ("src", "tests", "benchmarks", "examples"),
        "The control plane has one setting, ControlSpec(steering): the "
        "thresholds, dwell times and policy ladder are module constants, "
        "with no config object to override them."),
    "one-datapath-setting": (
        "-nwE", "nack_retries|nack_enabled|nack_delay|keyframe_scale|"
        "keyframe_interval|size_sigma|min_frame_bytes|base_backoff_slots|"
        "per_interferer_busy|cw_slots|initial_threshold|history_window|"
        "burst_gap|min_span|min_interval|max_interval|max_ampdu_bytes|"
        "rate_headroom|min_rate_bps|max_buffer_bytes|rto_min|max_tokens|"
        "overuse_time|delay_target|rate_window|start_active|ack_size|"
        "feedback_size", ("src",),
        "The datapath has one setting per mechanism: each number the "
        "paper or the model fixes is a module constant beside the code "
        "that reads it, not a constructor parameter that no caller sets."),
    "one-video-module": (
        "-nwE", "quic_video", ("src", "tests", "examples", "benchmarks"),
        "Every video app lives in app/video.py: the QUIC app shares the "
        "stream encoder path there."),
    "write-only-state": (
        "-nwE", "state_log|reconvergence_duration", ("src",),
        "Recorders hold only what a reader in src reads: no per-feedback "
        "GCC signal log and no rate series kept for a metric nothing calls."),
    "no-cca-rtt-column": (
        "-nE", "cca_rtt|rtt_recorder",
        ("src", "examples", "benchmarks/bench_*.py"),
        "Summaries carry only the series a reader reads, and senders keep "
        "no per-feedback RTT column."),
    "one-loss-rule": (
        "-nwE", r"WatchdogConfig|_drop_hook|join\.drop",
        ("src", "tests", "examples", "benchmarks"),
        "The prediction join alone retires a lost packet's prediction, at "
        "its flow's next delivery: no queue-drop hook may feed it, and the "
        "watchdog's thresholds are module constants with no config object."),
    "no-prediction-time-cache": (
        "-nwE", "min_estimation_interval", ("src",),
        "The Fortune Teller computes every prediction it is asked for: no "
        "time-based reuse of the last one may come back."),
    "one-fleet-storm": (
        "-nwE", "no_fleet|fleet_storm|fleet_duration", ("src",),
        "The control figure always runs its fleet comparison on "
        "FLEET_STORM for FLEET_DURATION: no option may skip or retune it."),
    # Perl syntax: the lookbehind lets ``repro.baselines.fastack``
    # imports through.
    "one-ap-object": (
        "-nP", r"abc_router|(?<!baselines)\.fastack\b|_make_ap_wire",
        ("src",),
        "Every ap_mode is one AP object that the links deliver to: no "
        "ABC router or FastAck proxy table may hang on ApRuntime beside "
        "it, and Forwarding may not wrap AP ingress in a mode branch."),
    "abc-arrivals-only": (
        "-nE", "_departures|queueing_delay", ("src/repro/cca/abc.py",),
        "ABC's router reads the link capacity and a running total of its "
        "arrival window: no per-departure log may come back."),
    "accumulating-timer": (
        "-nwE", "on_grid", ("src", "tests"),
        "Timer has one tick rule, now + interval: the unused absolute-grid "
        "mode may come back only as the re-pin that makes it the rule."),
    "one-spec-codec": (
        "-nE", r"def (as_dict|from_dict)\(|cls\(\*\*payload\)",
        ("src/repro/topology/spec.py", "src/repro/faults/spec.py",
         "src/repro/control/spec.py", "src/repro/traces/spec.py",
         "src/repro/obs/session.py", "src/repro/city/gen.py",
         "src/repro/campaign/spec.py"),
        "Every spec serialises through repro.spec_codec's one rule, which "
        "refuses unknown keys by name: no hand-written as_dict / from_dict "
        "may come back to a spec module."),
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
