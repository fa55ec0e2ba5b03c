"""Command-line interface: run scenarios, campaigns, and inspect traces.

Usage::

    python -m repro run --trace W1 --protocol rtp --ap zhuge --duration 30
    python -m repro compare --trace W1 --protocol rtp --duration 30 --jobs 3
    python -m repro campaign --traces W1,W2 --schemes Gcc+FIFO,Gcc+Zhuge \
        --seeds 1,2 --duration 30 --jobs 4
    python -m repro run --trace W2 --duration 20 --trace-out events.json \
        --trace-events queue,ap
    python -m repro trace --family W2 --duration 60 --out w2.json
    python -m repro trace-stats w2.json

``run --trace-out`` writes a Perfetto-openable event trace of the
scenario (see ``repro.obs``); ``trace`` generates bandwidth-trace files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

from repro.campaign import (ProgressPrinter, ResultCache, ScenarioSpec,
                            TraceSpec, run_campaign, run_specs,
                            summary_lines)
from repro.city import CITY_PRESETS, CityGenSpec
from repro.control import ControlSpec
from repro.faults.chaos import ChaosPlan, build_chaos
from repro.faults.spec import FaultPlan
from repro.obs.events import CATEGORIES
from repro.obs.session import FORMATS, TraceConfig
from repro.experiments.drivers.format import format_table, format_trace_rows
from repro.experiments.drivers.traces_eval import (SCHEMES_BY_NAME,
                                                   grid_rows, grid_specs)
from repro.topology.builder import TopologyBuilder
from repro.topology.presets import (first_mile_topology,
                                    interference_topology, roaming_topology)
from repro.topology.spec import (AP_MODES, PROTOCOLS, QUEUE_KINDS,
                                 TopologySpec)
from repro.topology.stacks import CCA_RUNS
from repro.traces.synthetic import TRACE_NAMES
from repro.traces.trace import BandwidthTrace

TRACE_CHOICES = list(TRACE_NAMES) + ["eth", "abc-legacy"]


def _number(kind=float, minimum=0, strict=True, unit: str = ""):
    """argparse ``type=`` for a finite ``kind`` (float or int) above
    ``minimum`` (at least ``minimum`` unless ``strict``), in ``unit``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not {'a number' if kind is float else 'an integer'}: "
                f"{text!r}") from None
        if not ((value > minimum if strict else value >= minimum)
                and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {minimum}"
                f"{' ' + unit if unit else ''}: {text!r}")
        return value
    return parse


_duration = _number(unit="seconds")
_count = _number(int, 0, strict=False)


def _comma_list(element=str, choices=None):
    """argparse ``type=`` for a non-empty comma list: a tuple of items,
    each one of ``choices`` (when given) and parsed by ``element``."""
    def parse(text: str) -> tuple:
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        values = []
        for item in items:
            if choices is not None and item not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {item!r} (choose from "
                    f"{', '.join(choices)})")
            try:
                values.append(element(item))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid {element.__name__} value: {item!r}") from None
        return tuple(values)
    return parse


def _checked(parse, file: bool = False):
    """argparse ``type=`` calling ``parse(text)`` at parse time: a bad
    DSL string (``ValueError``) or input ``file`` (any load error) is
    one argparse error naming it, not a traceback from inside a cell."""
    errors = ((OSError, ValueError, TypeError, KeyError, AttributeError)
              if file else ValueError)

    def check(text: str):
        try:
            return parse(text)
        except errors as exc:
            raise argparse.ArgumentTypeError(
                f"cannot load {text}: {type(exc).__name__}: {exc}"
                if file else str(exc)) from None
    return check


def _fault_text(text: str) -> str:
    FaultPlan.parse(text)  # validate; the seed is applied later
    return text


def _trace_file_spec(path: str) -> TraceSpec:
    BandwidthTrace.load(path)
    return TraceSpec.from_file(path)


def _json_file(path: str):
    return json.loads(Path(path).read_text())


_fault_dsl = _checked(_fault_text)
# The canonical plan text; the state directory comes from --chaos-dir.
_chaos_plan = _checked(lambda text: ChaosPlan.parse(text).as_spec())
_trace_file = _checked(_trace_file_spec, file=True)
_topology_file = _checked(
    lambda path: TopologySpec.from_dict(_json_file(path)), file=True)
# Every spec is built, and so validated, before any cell runs.
_specs_file = _checked(lambda path: [ScenarioSpec.from_dict(entry)
                                     for entry in _json_file(path)],
                       file=True)


def _fault_plan_from_args(args) -> FaultPlan | None:
    if not args.faults:
        return None
    return FaultPlan.parse(args.faults, seed=args.fault_seed)


def _spec_from_args(args, ap_mode: str,
                    trace_out: str | None = None) -> ScenarioSpec:
    out = trace_out or args.trace_out
    return ScenarioSpec(
        # +5 s of trace so playback never wraps during the measured window.
        trace=args.trace_file or TraceSpec.for_family(
            args.trace, duration=args.duration + 5, seed=args.seed),
        protocol=args.protocol,
        cca=args.cca,
        ap_mode=ap_mode,
        queue_kind=args.queue,
        duration=args.duration,
        seed=args.seed,
        max_bps=args.max_mbps * 1e6,
        competitors=args.competitors,
        interferers=args.interferers,
        trace_config=(TraceConfig(events=args.trace_events, out=out,
                                  fmt=args.trace_format) if out else None),
        faults=_fault_plan_from_args(args),
        topology=args.topology,
        # --control enables the controllers and fleet steering.
        control=ControlSpec(steering=True) if args.control else None,
    )


def _cache_store(args) -> ResultCache:
    """The result cache at --cache-dir, or at the default root."""
    if args.cache_dir:
        return ResultCache(root=args.cache_dir)
    return ResultCache()


def _runner(args) -> dict:
    """The runner's keyword arguments from the cached-runner flags."""
    return {"jobs": args.jobs, "timeout": args.timeout,
            "retries": args.retries,
            "cache": None if args.no_cache else _cache_store(args)}


def _campaign_runner(args) -> dict:
    """``_runner`` plus the progress printer and the --chaos worker."""
    progress = None if args.quiet else ProgressPrinter()
    worker = None
    if args.chaos:
        worker, progress = build_chaos(args.chaos, args.chaos_dir,
                                       progress=progress)
    return {**_runner(args), "progress": progress, "worker": worker}


def _finish(args, cache, payload, campaign=None, noun="cells") -> int:
    """The cached commands' epilogue: --cache-prune, ``payload()`` to
    --out, and the exit status (--assert-cached on ``campaign``)."""
    if args.cache_prune is not None and cache is None:
        print("--cache-prune ignored: caching is disabled")
    elif args.cache_prune is not None:
        pruned = cache.prune(int(args.cache_prune * 1e6))
        print(f"cache prune: kept {pruned.kept} entries "
              f"({pruned.kept_bytes / 1e6:.1f} MB), removed {pruned.pruned} "
              f"({pruned.pruned_bytes / 1e6:.1f} MB)")
    if args.out:
        Path(args.out).write_text(json.dumps(payload(), indent=2))
        print(f"wrote {args.out}")
    if campaign is not None and args.assert_cached \
            and campaign.progress.cached != len(campaign.cells):
        print(f"--assert-cached: only {campaign.progress.cached}/"
              f"{len(campaign.cells)} {noun} came from the cache")
        return 1
    return 0


def _trace_config(args, name: str) -> TraceConfig | None:
    """An event trace to ``name`` in --trace-dir (created), if given."""
    if not args.trace_dir:
        return None
    trace_dir = Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    return TraceConfig(out=str(trace_dir / name))


def _at(value) -> str:
    return f"{value:.2f}s" if value is not None else "-"


def cmd_run(args) -> int:
    builder = TopologyBuilder(_spec_from_args(args, args.ap))
    summary = builder.run()
    print("\n".join(summary_lines(
        f"{args.protocol}/{args.cca} over {args.trace}, AP={args.ap}",
        summary)))
    session = builder.trace_session
    if session is not None:
        counts = Counter(event.category for event in session.events)
        per_category = ", ".join(f"{category}={count}"
                                 for category, count in sorted(counts.items()))
        print(f"wrote event trace {args.trace_out} ({args.trace_format}): "
              f"{len(session.events)} events ({per_category or 'none'})")
        print("\n".join(session.auditor.report().format_lines()))
    return 0


def cmd_compare(args) -> int:
    modes = args.ap_modes
    # One artifact per mode: `--trace-out t.json` -> t-none.json, ...
    outs = [None] * len(modes)
    if args.trace_out:
        path = Path(args.trace_out)
        outs = [str(path.with_name(f"{path.stem}-{mode}{path.suffix}"))
                for mode in modes]
    specs = [_spec_from_args(args, mode, trace_out=out)
             for mode, out in zip(modes, outs)]
    summaries = run_specs(specs, jobs=args.jobs)
    for mode, summary in zip(modes, summaries):
        print("\n".join(summary_lines(f"AP mode: {mode}", summary)))
    for out in outs:
        if out:
            print(f"wrote event trace {out}")
    return 0


def cmd_city_campaign(args) -> int:
    """The ``campaign --city`` path: generate, shard, simulate, merge."""
    from repro.experiments.drivers.city import CITY_DURATION, run_city

    gen = CityGenSpec.for_preset(args.city, aps=args.aps,
                                 seed=args.city_seed)
    duration = args.duration if args.duration is not None else CITY_DURATION
    runner = _campaign_runner(args)
    print(gen.describe())
    result = run_city(gen, duration=duration, shard_aps=args.shard_aps,
                      trace_config=_trace_config(args, "city-trace.json"),
                      sample_budget=args.sample_budget, **runner)
    fleet = result.fleet
    print("\n".join(fleet.lines(f"fleet — {args.city}/{args.aps} APs")))
    telemetry = result.campaign.progress
    print(f"shards: {len(result.campaign.cells)} total — "
          f"{telemetry.ok} computed, {telemetry.cached} cached, "
          f"{telemetry.retries} retries in "
          f"{result.campaign.wall_s:.1f}s")
    return _finish(args, runner["cache"], lambda: {
        "gen": gen.as_dict(), "gen_hash": gen.content_hash(),
        "duration": duration, "fleet": fleet.as_dict(),
        "digest": fleet.digest(), "progress": telemetry.as_dict(),
        "wall_s": result.campaign.wall_s}, result.campaign, "shards")


def cmd_campaign(args) -> int:
    if args.city:
        return cmd_city_campaign(args)
    if args.duration is None:
        args.duration = 30.0
    if args.specs is not None:
        specs = args.specs
        grid = None
    else:
        grid = [(trace, scheme, SCHEMES_BY_NAME[scheme])
                for trace in args.traces for scheme in args.schemes]
        specs = grid_specs(grid, args.duration, args.seeds)
        # The grid's rows measure from the warm-up on: refuse a grid
        # with nothing to measure before any cell runs.
        warmup = max((spec.warmup for spec in specs), default=0.0)
        if args.duration <= warmup:
            print(f"repro campaign: error: argument --duration: must be > "
                  f"the {warmup:g} s warm-up: {args.duration:g}",
                  file=sys.stderr)
            raise SystemExit(2)

    # The control spec, the topology (one explicit graph for the whole
    # grid) and the per-cell event-trace artifact are each part of the
    # spec and its content hash, so controlled, multi-AP and traced
    # cells never alias static, single-AP or untraced ones in the cache.
    overrides = {}
    if args.control:
        overrides["control"] = ControlSpec(steering=True)
    if args.topology is not None:
        overrides["topology"] = args.topology
    if overrides or args.trace_dir:
        specs = [dataclasses.replace(spec, **overrides, **(
                     {"trace_config": _trace_config(
                         args, f"cell-{index:03d}-trace.json")}
                     if args.trace_dir else {}))
                 for index, spec in enumerate(specs)]

    runner = _campaign_runner(args)
    result = run_campaign(specs, **runner)

    rows = []
    if grid is not None and not result.failures():
        rows = grid_rows(grid, [cell.summary for cell in result.cells],
                         args.duration, args.seeds)
        print(format_trace_rows(
            f"campaign — {len(result.cells)} cells over seeds {args.seeds}",
            rows))

    for cell in result.failures():
        print(f"FAILED cell {cell.index} [{cell.spec.label()}] "
              f"after {cell.attempts} attempts: {cell.error}")
        if cell.flight_dump:
            print(cell.flight_dump)
    telemetry = result.progress
    print(f"cells: {len(result.cells)} total — {telemetry.ok} computed, "
          f"{telemetry.cached} cached, {telemetry.failed} failed, "
          f"{telemetry.retries} retries in {result.wall_s:.1f}s "
          f"({telemetry.cells_per_sec():.2f} cells/s)")
    status = _finish(args, runner["cache"], lambda: {
        "progress": telemetry.as_dict(),
        "wall_s": result.wall_s,
        "cells": [{"index": c.index, "status": c.status,
                   "cached": c.cached, "attempts": c.attempts,
                   "error": c.error, "spec": c.spec.as_dict()}
                  for c in result.cells],
        "rows": [dataclasses.asdict(r) for r in rows],
    }, None if result.failures() else result)
    return 1 if result.failures() else status


def cmd_resilience(args) -> int:
    from repro.experiments.drivers.resilience import fig_resilience
    runner = _runner(args)
    rows = fig_resilience(blackout_lengths=args.lengths,
                          duration=args.duration, seeds=args.seeds,
                          protocol=args.protocol, cca=args.cca, **runner)
    print(format_table(
        f"resilience — blackout sweep over seeds {args.seeds}",
        ("scheme", "blackout", "steady P50", "fault P50", "fault P99",
         "demote", "promote"),
        [(r.scheme, f"{r.blackout_s:g}s", f"{r.steady_p50_ms:.0f} ms",
          f"{r.fault_p50_ms:.0f} ms", f"{r.fault_p99_ms:.0f} ms",
          _at(r.demote_at), _at(r.promote_at)) for r in rows]))
    return _finish(args, runner["cache"],
                   lambda: [dataclasses.asdict(r) for r in rows])


def cmd_control(args) -> int:
    from repro.experiments.drivers import control as driver
    runner = _runner(args)
    rows, fleet_rows = driver.fig_control(
        seeds=args.seeds,
        duration=(args.duration if args.duration is not None
                  else driver.DURATION),
        storm=args.storm or driver.STORM, **runner)
    print(format_table(
        f"control — static vs controller over seeds {args.seeds} "
        f"(pooled fault windows)",
        ("scheme", "steady P50", "fault P50", "fault P99", "samples",
         "transitions", "first react"),
        [(r.scheme, f"{r.steady_p50_ms:.0f} ms", f"{r.fault_p50_ms:.0f} ms",
          f"{r.fault_p99_ms:.0f} ms", str(r.fault_samples),
          str(r.transitions), _at(r.first_reaction)) for r in rows]))
    print(format_table(
        "control — fleet steering on the two-AP roaming topology",
        ("scheme", "fault P50", "fault P99", "samples", "moves"),
        [(r.scheme, f"{r.fault_p50_ms:.0f} ms",
          f"{r.fault_p99_ms:.0f} ms", str(r.fault_samples),
          str(r.moves)) for r in fleet_rows]))
    return _finish(args, runner["cache"], lambda: {
        "control": [dataclasses.asdict(r) for r in rows],
        "fleet": [dataclasses.asdict(r) for r in fleet_rows]})


def cmd_cache(args) -> int:
    """``repro cache verify``: checksum-audit the result cache.

    Exit status 0 when every entry verified (stale entries are fine:
    the next read evicts them) and 2 when corruption was found — the
    damaged entries are already quarantined by the time we report, so
    a rerun exits 0.
    """
    store = _cache_store(args)
    print(f"cache root: {store.root}")
    report = store.verify()
    print("\n".join(report.lines()))
    return 0 if report.clean else 2


def cmd_trace(args) -> int:
    trace = TraceSpec.for_family(args.family, duration=args.duration,
                                 seed=args.seed).build()
    trace.save(args.out)
    print(f"wrote {args.out}: {len(trace)} samples, "
          f"mean {trace.mean_bps / 1e6:.1f} Mbps")
    return 0


def cmd_topology(args) -> int:
    """Emit a multi-AP topology preset as TopologySpec JSON."""
    if args.preset == "generate":
        gen = CityGenSpec.for_preset(args.city, aps=args.aps,
                                     seed=args.city_seed)
        spec = gen.build()
        print(f"# {gen.describe()} "
              f"[gen hash {gen.content_hash()[:16]}]", file=sys.stderr)
    elif args.preset == "interference":
        spec = interference_topology(ap_mode=args.ap,
                                     queue_kind=args.queue,
                                     interferers=args.interferers)
    elif args.preset == "roaming":
        spec = roaming_topology(ap_mode=args.ap, queue_kind=args.queue)
    else:  # first-mile
        spec = first_mile_topology(duration=args.duration)
    text = json.dumps(spec.as_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {len(spec.nodes)} nodes, "
              f"{len(spec.edges)} edges, {len(spec.flows)} flows "
              f"({sum(1 for n in spec.nodes if n.role == 'ap')} APs)")
    else:
        print(text)
    return 0


def cmd_trace_stats(args) -> int:
    from repro.traces.abw import reduction_tail_fraction
    trace = BandwidthTrace.load(args.file)
    print(f"{trace.name}: {len(trace)} samples x {trace.interval * 1000:.0f} ms")
    print(f"  mean: {trace.mean_bps / 1e6:.2f} Mbps")
    print(f"  min/max: {min(trace.rates_bps) / 1e6:.2f} / "
          f"{max(trace.rates_bps) / 1e6:.2f} Mbps")
    for threshold in (2.0, 5.0, 10.0):
        fraction = reduction_tail_fraction(trace, threshold)
        print(f"  P(ABW drop >= {threshold:g}x): {fraction * 100:.2f}%")
    return 0


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    """Explicit experiment graphs (repro.topology) and the adaptive
    control plane (repro.control), shared by the scenario commands and
    ``campaign``."""
    group = parser.add_argument_group(
        "topology and adaptive control (repro.topology, repro.control)")
    group.add_argument("--topology", default=None, metavar="JSON",
                       type=_topology_file,
                       help="TopologySpec JSON file declaring an explicit "
                            "(possibly multi-AP) experiment graph; "
                            "generate presets with 'repro topology'")
    group.add_argument("--control", action="store_true",
                       help="attach the adaptive per-AP controller (and, "
                            "on multi-AP topologies, the fleet steering "
                            "daemon)")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """The flags of one scenario (``run`` and ``compare``)."""
    group = parser.add_argument_group("bandwidth trace")
    group.add_argument("--trace", default="W1", choices=TRACE_CHOICES)
    group.add_argument("--trace-file", default=None, type=_trace_file,
                       help="JSON trace file (overrides --trace)")
    parser.add_argument("--protocol", default="rtp", choices=PROTOCOLS)
    parser.add_argument("--cca", default="gcc",
                        help="gcc/nada/scream (rtp) or copa/bbr/cubic/abc "
                             "(tcp, quic)")
    parser.add_argument("--queue", default="fifo", choices=QUEUE_KINDS)
    parser.add_argument("--duration", type=_duration, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-mbps", type=_number(unit="Mb/s"), default=4.0)
    parser.add_argument("--competitors", type=_count, default=0)
    parser.add_argument("--interferers", type=_count, default=0)
    _add_spec_options(parser)
    # Named --trace-out/--trace-events because --trace already selects
    # the bandwidth-trace family.
    group = parser.add_argument_group("event tracing (repro.obs)")
    group.add_argument("--trace-out", default=None,
                       help="write an event trace of the run here "
                            "(Chrome trace_event JSON, Perfetto-openable)")
    group.add_argument("--trace-events", default=CATEGORIES,
                       type=_comma_list(choices=CATEGORIES),
                       help="comma list of event categories to trace "
                            "(default: all)")
    group.add_argument("--trace-format", default="chrome",
                       choices=FORMATS)
    group = parser.add_argument_group("fault injection (repro.faults)")
    group.add_argument("--faults", default=None, type=_fault_dsl,
                       help="fault plan DSL: comma list of "
                            "kind@start[+duration][*magnitude][/target], "
                            "e.g. 'blackout@10+2,reset@12', "
                            "'loss@5+3*0.3/up', or — on a multi-AP "
                            "topology — 'blackout@5+1/a-down' and "
                            "'roam@5+0.4/client:ap-b' (kinds: blackout, "
                            "rate_crash/crash, loss_burst/loss, "
                            "ap_reset/reset, roam)")
    group.add_argument("--fault-seed", type=int, default=1,
                       help="seed for stochastic faults (loss bursts)")


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/"
                             "repro-campaign); re-running a killed "
                             "campaign on it computes only the lost cells")


def _add_city_gen(parser, help_suffix: str = "") -> None:
    """--aps and --city-seed of the city generator (repro.city)."""
    parser.add_argument("--aps", type=_number(int, 1, strict=False),
                        default=100,
                        help="AP count of the generated city" + help_suffix)
    parser.add_argument("--city-seed", type=int, default=1,
                        help="generator seed (same seed, same city)"
                             + help_suffix)


def _add_campaign_exec_args(parser: argparse.ArgumentParser,
                            seeds: str) -> None:
    """The cached-runner flags of ``campaign``, ``resilience`` and
    ``control``; ``seeds`` is the default of their --seeds."""
    parser.add_argument("--seeds", default=seeds, type=_comma_list(int),
                        help="comma list of seeds per cell")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (<=1 runs in-process)")
    _add_cache_dir(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--timeout", type=_duration, default=None,
                        help="per-cell wall-clock budget in seconds")
    parser.add_argument("--retries", type=_count, default=1,
                        help="extra attempts per failing cell")
    parser.add_argument("--cache-prune", default=None, metavar="MB",
                        type=_number(strict=False, unit="MB"),
                        help="after the run, shrink the result cache to "
                             "this many megabytes (LRU by last use)")
    parser.add_argument("--out", default=None,
                        help="write the rows (and telemetry) JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Zhuge (SIGCOMM 2022) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        command_parser = sub.add_parser(name, help=help)
        command_parser.set_defaults(func=func)
        return command_parser

    run_parser = command("run", cmd_run, "run one scenario")
    _add_scenario_args(run_parser)
    run_parser.add_argument("--ap", default="zhuge", choices=AP_MODES)

    compare_parser = command("compare", cmd_compare,
                             "run plain AP vs Zhuge AP")
    _add_scenario_args(compare_parser)
    compare_parser.add_argument("--ap-modes", default="none,zhuge",
                                type=_comma_list(choices=AP_MODES),
                                help="comma list of AP modes to compare")
    compare_parser.add_argument("--jobs", type=int, default=0,
                                help="run the AP modes in parallel "
                                     "worker processes")

    campaign_parser = command(
        "campaign", cmd_campaign,
        "run a (traces x schemes x seeds) grid through the "
        "parallel cached campaign runner")
    campaign_parser.add_argument("--traces", default="W1",
                                 type=_comma_list(choices=TRACE_CHOICES),
                                 help="comma list of trace families")
    campaign_parser.add_argument("--schemes",
                                 default="Gcc+FIFO,Gcc+CoDel,Gcc+Zhuge",
                                 type=_comma_list(
                                     choices=sorted(SCHEMES_BY_NAME)),
                                 help="comma list of scheme names "
                                      "(see drivers/traces_eval.py)")
    campaign_parser.add_argument("--duration", type=_duration, default=None,
                                 help="simulated seconds per cell "
                                      "(default 30, or 20 with --city)")
    city_group = campaign_parser.add_argument_group(
        "city-scale fleets (repro.city)")
    city_group.add_argument("--city", default=None,
                            choices=sorted(CITY_PRESETS),
                            help="generate a seeded city of this layout "
                                 "preset, shard it along contention "
                                 "domains, and report fleet-wide delay "
                                 "percentiles (replaces the trace/scheme "
                                 "grid)")
    _add_city_gen(city_group)
    city_group.add_argument("--shard-aps", type=int, default=32,
                            help="max APs per shard (<=0: run the city "
                                 "as one unsharded cell)")
    city_group.add_argument("--sample-budget", type=_count,
                            default=2_000_000,
                            help="max pooled delay samples kept exact; "
                                 "beyond it fleet percentiles come from "
                                 "the mergeable CDF sketch (~2%% error)")
    campaign_parser.add_argument("--specs", default=None,
                                 type=_specs_file,
                                 help="JSON file with a list of raw "
                                      "ScenarioSpec dicts (overrides the "
                                      "grid flags)")
    campaign_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-cell progress lines")
    campaign_parser.add_argument("--assert-cached", action="store_true",
                                 help="exit non-zero unless every cell was "
                                      "a cache hit (CI smoke check)")
    campaign_parser.add_argument("--trace-dir", default=None,
                                 help="write one event-trace artifact per "
                                      "cell into this directory")
    _add_spec_options(campaign_parser)
    _add_campaign_exec_args(campaign_parser, seeds="1,2")
    chaos_group = campaign_parser.add_argument_group(
        "chaos drills (repro.faults.chaos)")
    chaos_group.add_argument("--chaos", default=None, metavar="PLAN",
                       type=_chaos_plan,
                       help="deterministic harness-fault plan, e.g. "
                            "'kill-worker@2,oom@4' or 'exit-run@3' "
                            "(kinds: kill-worker, oom, hang, exit-run; "
                            "counts are 1-based campaign-wide; hang "
                            "needs --timeout to end)")
    chaos_group.add_argument("--chaos-dir", default=None, metavar="DIR",
                       help="scratch directory for the chaos plan's "
                            "cross-process counters and fire-once "
                            "markers (required with --chaos)")

    cache_parser = command(
        "cache", cmd_cache,
        "inspect the campaign result cache (verify checksums, "
        "quarantine damage)")
    cache_parser.add_argument("action", choices=("verify",),
                              help="verify: checksum-audit every entry; "
                                   "corrupt ones are quarantined under "
                                   "<root>/quarantine/")
    _add_cache_dir(cache_parser)

    resilience_parser = command(
        "resilience", cmd_resilience,
        "blackout sweep: Zhuge vs passthrough vs FastAck under "
        "injected faults (repro.faults)")
    resilience_parser.add_argument("--lengths", default="0.5,1,2",
                                   type=_comma_list(_duration),
                                   help="comma list of blackout lengths "
                                        "in seconds")
    resilience_parser.add_argument("--duration", type=_duration, default=25.0)
    resilience_parser.add_argument("--protocol", default="tcp",
                                   choices=("rtp", "tcp"))
    resilience_parser.add_argument("--cca", default="copa")
    _add_campaign_exec_args(resilience_parser, seeds="1")

    control_parser = command(
        "control", cmd_control,
        "fault-storm comparison: static Zhuge vs the adaptive "
        "controller, plus fleet steering on a two-AP topology "
        "(repro.control)")
    control_parser.add_argument("--duration", type=_duration, default=None,
                                help="per-AP storm run length")
    control_parser.add_argument("--storm", default=None, type=_fault_dsl,
                                help="per-AP fault-plan DSL override")
    _add_campaign_exec_args(control_parser, seeds="1,2")

    trace_parser = command(
        "trace", cmd_trace,
        "generate a bandwidth-trace file (event traces of a "
        "scenario: run --trace-out)")
    trace_parser.add_argument("--family", default="W1",
                              choices=TRACE_CHOICES)
    trace_parser.add_argument("--duration", type=_duration, default=60.0)
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--out", required=True)

    topology_parser = command(
        "topology", cmd_topology,
        "emit a multi-AP TopologySpec JSON preset for --topology "
        "('generate' emits a seeded repro.city topology)")
    topology_parser.add_argument("preset", choices=(
        "interference", "roaming", "first-mile", "generate"))
    topology_parser.add_argument("--city", default="grid",
                                 choices=sorted(CITY_PRESETS),
                                 help="city layout preset "
                                      "(generate preset)")
    _add_city_gen(topology_parser, " (generate preset)")
    topology_parser.add_argument("--ap", default="zhuge", choices=AP_MODES,
                                 help="optimization mode of the serving AP")
    topology_parser.add_argument("--queue", default="fq_codel",
                                 choices=QUEUE_KINDS)
    topology_parser.add_argument("--interferers", type=_count, default=5,
                                 help="contending stations "
                                      "(interference preset)")
    topology_parser.add_argument("--duration", type=_duration, default=60.0,
                                 help="access-trace length "
                                      "(first-mile preset)")
    topology_parser.add_argument("--out", default=None,
                                 help="write the JSON here "
                                      "(default: stdout)")

    stats_parser = command("trace-stats", cmd_trace_stats,
                           "summarize a trace file")
    stats_parser.add_argument("file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    protocol = getattr(args, "protocol", None)
    if protocol is not None and args.cca not in CCA_RUNS[protocol]:
        parser.exit(2, f"repro {args.command}: error: argument --cca: "
                       f"{args.cca!r} is not valid with --protocol "
                       f"{protocol}; expected one of "
                       f"{sorted(CCA_RUNS[protocol])}\n")
    if getattr(args, "chaos", None) and not args.chaos_dir:
        parser.exit(2, f"repro {args.command}: error: argument --chaos: "
                       f"requires --chaos-dir (the fire-once markers must "
                       f"survive the planned crash)\n")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
