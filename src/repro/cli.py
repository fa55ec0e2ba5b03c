"""Command-line interface: run scenarios, campaigns, and inspect traces.

Usage::

    python -m repro run --trace W1 --protocol rtp --ap zhuge --duration 30
    python -m repro compare --trace W1 --protocol rtp --duration 30 --jobs 3
    python -m repro campaign --traces W1,W2 --schemes Gcc+FIFO,Gcc+Zhuge \
        --seeds 1,2 --duration 30 --jobs 4
    python -m repro trace --family W2 --duration 60 --out w2.json
    python -m repro trace W2 --duration 20 --out events.json --events queue,ap
    python -m repro trace-stats w2.json

The ``trace`` subcommand is dual-mode: with a positional scenario it
runs a short traced simulation and writes a Perfetto-openable event
trace (see ``repro.obs``); with ``--family`` alone it keeps its
original job of generating bandwidth-trace files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from repro.campaign import (ProgressPrinter, ResultCache, ScenarioSpec,
                            TraceSpec, run_campaign, run_specs,
                            summary_lines)
from repro.cca import RATE_CCAS, WINDOW_CCAS
from repro.city import CITY_PRESETS, CityGenSpec
from repro.control import ControlSpec
from repro.faults.spec import FaultPlan
from repro.obs.session import FORMATS, TraceConfig
from repro.experiments.drivers.format import format_table, format_trace_rows
from repro.experiments.drivers.traces_eval import (SCHEMES_BY_NAME,
                                                   grid_rows, grid_specs)
from repro.topology.builder import TopologyBuilder
from repro.topology.presets import (first_mile_topology,
                                    interference_topology, roaming_topology)
from repro.topology.spec import (AP_MODES, PROTOCOLS, QUEUE_KINDS,
                                 TopologySpec)
from repro.traces.synthetic import TRACE_NAMES
from repro.traces.trace import BandwidthTrace

TRACE_CHOICES = list(TRACE_NAMES) + ["eth", "abc-legacy"]

#: Multi-AP presets emitted by ``repro topology`` (see repro.topology).
TOPOLOGY_PRESETS = ("interference", "roaming", "first-mile")

#: ``--cca`` names per ``--protocol``: the builder runs ``copa`` as gcc
#: on rtp and ``gcc`` as copa on quic.
CCA_CHOICES = {"rtp": {*RATE_CCAS, "copa"}, "tcp": set(WINDOW_CCAS),
               "quic": {*WINDOW_CCAS, "gcc"}}


def _positive(unit: str, zero: bool = False):
    """argparse ``type=`` for a finite float above zero (at least zero
    with ``zero``), in ``unit``."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a number: {text!r}") from None
        if not (0 <= value < math.inf if zero else 0 < value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if zero else '>'} 0 {unit}: {text!r}")
        return value
    return parse


_duration = _positive("seconds")
_rate_mbps = _positive("Mb/s")
_megabytes = _positive("MB", zero=True)


def _at_least(minimum: int):
    """argparse ``type=`` for an integer of ``minimum`` or more."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}: {text!r}")
        return value
    return parse


_count = _at_least(0)
_positive_count = _at_least(1)


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


def _fault_dsl(text: str) -> str:
    """argparse ``type=`` for fault-plan DSL strings: parse to validate,
    keep the text (the seed and watchdog policy are applied later)."""
    try:
        FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _loaded(path: str, load):
    """``load(path)`` at parse time: a bad input file is one argparse
    error naming it, not a traceback from inside a cell."""
    try:
        return load(path)
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot load {path}: {type(exc).__name__}: {exc}") from None


def _topology_file(path: str) -> TopologySpec:
    """argparse ``type=`` for ``--topology``: the parsed graph."""
    return _loaded(path, lambda p: TopologySpec.from_dict(
        json.loads(Path(p).read_text())))


def _trace_file(path: str) -> TraceSpec:
    """argparse ``type=`` for ``--trace-file``: a checked file spec."""
    _loaded(path, BandwidthTrace.load)
    return TraceSpec.from_file(path)


def _specs_file(path: str) -> list[ScenarioSpec]:
    """argparse ``type=`` for ``campaign --specs``: every spec built
    (and so validated) before any cell runs."""
    return _loaded(path, lambda p: [
        ScenarioSpec.from_dict(entry)
        for entry in json.loads(Path(p).read_text())])


def _trace_config_from_args(args, out: str | None = None) -> TraceConfig | None:
    out = out or getattr(args, "trace_out", None)
    if not out:
        return None
    events = TraceConfig.parse_events(getattr(args, "trace_events", "")
                                      or "")
    return TraceConfig(events=events, out=out,
                       fmt=getattr(args, "trace_format", "chrome"))


def _fault_plan_from_args(args) -> FaultPlan | None:
    text = getattr(args, "faults", None)
    if not text:
        return None
    return FaultPlan.parse(text, seed=getattr(args, "fault_seed", 1))


def _control_from_args(args) -> ControlSpec | None:
    """``--control`` enables the full control plane with defaults."""
    if not getattr(args, "control", False):
        return None
    return ControlSpec.default()


def _spec_from_args(args, ap_mode: str,
                    trace_out: str | None = None) -> ScenarioSpec:
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
        trace_config=_trace_config_from_args(args, out=trace_out),
        faults=_fault_plan_from_args(args),
        topology=args.topology,
        control=_control_from_args(args),
    )


def _resolve_cache_args(args):
    """The ``cache=`` value for the runner from --cache-dir/--no-cache."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return ResultCache(root=cache_dir)
    return True  # default root (~/.cache/repro-campaign or $REPRO_CACHE_DIR)


def _maybe_prune_cache(args, cache) -> None:
    """Honor ``--cache-prune MB`` after a campaign-style run."""
    budget_mb = getattr(args, "cache_prune", None)
    if budget_mb is None:
        return
    from repro.campaign.cache import resolve_cache
    store = resolve_cache(cache)
    if store is None:
        print("--cache-prune ignored: caching is disabled")
        return
    pruned = store.prune(int(budget_mb * 1e6))
    print(f"cache prune: kept {pruned.kept} entries "
          f"({pruned.kept_bytes / 1e6:.1f} MB), removed {pruned.pruned} "
          f"({pruned.pruned_bytes / 1e6:.1f} MB)")


def cmd_run(args) -> int:
    summary = run_specs([_spec_from_args(args, args.ap)])[0]
    print("\n".join(summary_lines(
        f"{args.protocol}/{args.cca} over {args.trace}, AP={args.ap}",
        summary)))
    if args.trace_out:
        print(f"wrote event trace {args.trace_out}")
    return 0


def _suffixed(path: str, tag: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{tag}{p.suffix}"))


def cmd_compare(args) -> int:
    modes = args.ap_modes
    # One artifact per mode: `--trace-out t.json` -> t-none.json, ...
    outs = [(_suffixed(args.trace_out, mode) if args.trace_out else None)
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


def _chaos_from_args(args, progress):
    """``(worker, progress)`` for --chaos, or ``(None, progress)``."""
    spec = getattr(args, "chaos", None)
    if not spec:
        return None, progress
    from repro.faults.chaos import build_chaos
    state_dir = getattr(args, "chaos_dir", None)
    if not state_dir:
        raise SystemExit("--chaos requires --chaos-dir (the fire-once "
                         "markers must survive the planned crash)")
    return build_chaos(spec, state_dir, progress=progress)


def cmd_city_campaign(args) -> int:
    """The ``campaign --city`` path: generate, shard, simulate, merge."""
    from repro.experiments.drivers.city import CITY_DURATION, run_city

    gen = CityGenSpec.for_preset(args.city, aps=args.aps,
                                 seed=args.city_seed)
    trace_config = None
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_config = TraceConfig(
            out=str(trace_dir / "city-trace.json"))
    duration = args.duration if args.duration is not None else CITY_DURATION
    progress = None if args.quiet else ProgressPrinter()
    worker, progress = _chaos_from_args(args, progress)
    cache = _resolve_cache_args(args)
    mem_limit = (int(args.mem_limit_mb * 1e6)
                 if args.mem_limit_mb is not None else None)
    print(gen.describe())
    result = run_city(gen, duration=duration, shard_aps=args.shard_aps,
                      jobs=args.jobs, cache=cache, timeout=args.timeout,
                      retries=args.retries, progress=progress,
                      trace_config=trace_config,
                      sample_budget=args.sample_budget,
                      journal=args.journal, resume=args.resume,
                      checkpoint_every=args.checkpoint_every,
                      mem_limit_bytes=mem_limit,
                      hang_timeout=args.hang_timeout,
                      worker=worker)
    fleet = result.fleet
    print("\n".join(fleet.lines(f"fleet — {args.city}/{args.aps} APs")))
    telemetry = result.campaign.progress
    resumed = (f", {telemetry.resumed} resumed" if telemetry.resumed
               else "")
    print(f"shards: {len(result.campaign.cells)} total — "
          f"{telemetry.ok} computed, {telemetry.cached} cached"
          f"{resumed}, {telemetry.retries} retries in "
          f"{result.campaign.wall_s:.1f}s")
    _maybe_prune_cache(args, cache)
    if args.out:
        payload = {"gen": gen.as_dict(),
                   "gen_hash": gen.content_hash(),
                   "duration": duration,
                   "fleet": fleet.as_dict(),
                   "digest": fleet.digest(),
                   "progress": telemetry.as_dict(),
                   "wall_s": result.campaign.wall_s}
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    if args.assert_cached and telemetry.cached != len(result.campaign.cells):
        print(f"--assert-cached: only {telemetry.cached}/"
              f"{len(result.campaign.cells)} shards came from the cache")
        return 1
    return 0


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

    if getattr(args, "control", False):
        # The control spec is part of each spec (and its content hash),
        # so controlled cells never alias static ones in the cache.
        specs = [dataclasses.replace(spec, control=ControlSpec.default())
                 for spec in specs]

    if args.topology is not None:
        # One explicit graph for the whole grid; the topology is part
        # of each spec (and its content hash), so multi-AP cells never
        # alias single-AP ones in the result cache.
        specs = [dataclasses.replace(spec, topology=args.topology)
                 for spec in specs]

    if args.trace_dir:
        # Per-cell event-trace artifacts. The trace config is part of
        # each spec (and its content hash), so traced cells never alias
        # untraced ones in the result cache.
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        specs = [dataclasses.replace(
                     spec, trace_config=TraceConfig(
                         out=str(trace_dir / f"cell-{index:03d}-trace.json")))
                 for index, spec in enumerate(specs)]

    progress = None if args.quiet else ProgressPrinter()
    worker, progress = _chaos_from_args(args, progress)
    cache = _resolve_cache_args(args)
    result = run_campaign(specs, jobs=args.jobs, cache=cache,
                          timeout=args.timeout, retries=args.retries,
                          progress=progress, worker=worker,
                          journal=args.journal, resume=args.resume,
                          hang_timeout=args.hang_timeout)

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
    if not telemetry.timeout_enforced:
        print("warning: per-cell timeout could not be enforced "
              "(no signal or watchdog-thread mechanism available); "
              f"modes seen: {telemetry.timeout_modes}")
    _maybe_prune_cache(args, cache)

    if args.out:
        payload = {
            "progress": telemetry.as_dict(),
            "wall_s": result.wall_s,
            "cells": [{"index": c.index, "status": c.status,
                       "cached": c.cached, "attempts": c.attempts,
                       "error": c.error, "spec": c.spec.as_dict()}
                      for c in result.cells],
            "rows": [dataclasses.asdict(r) for r in rows],
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")

    if result.failures():
        return 1
    if args.assert_cached and telemetry.cached != len(result.cells):
        print(f"--assert-cached: only {telemetry.cached}/"
              f"{len(result.cells)} cells came from the cache")
        return 1
    return 0


def cmd_resilience(args) -> int:
    from repro.experiments.drivers.resilience import fig_resilience
    cache = _resolve_cache_args(args)
    rows = fig_resilience(blackout_lengths=args.lengths,
                          duration=args.duration, seeds=args.seeds,
                          protocol=args.protocol, cca=args.cca,
                          jobs=args.jobs, cache=cache,
                          timeout=args.timeout, retries=args.retries)

    def _at(value):
        return f"{value:.2f}s" if value is not None else "-"

    print(format_table(
        f"resilience — blackout sweep over seeds {args.seeds}",
        ("scheme", "blackout", "steady P50", "fault P50", "fault P99",
         "demote", "promote"),
        [(r.scheme, f"{r.blackout_s:g}s", f"{r.steady_p50_ms:.0f} ms",
          f"{r.fault_p50_ms:.0f} ms", f"{r.fault_p99_ms:.0f} ms",
          _at(r.demote_at), _at(r.promote_at)) for r in rows]))
    _maybe_prune_cache(args, cache)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump([dataclasses.asdict(r) for r in rows], handle,
                      indent=2)
        print(f"wrote {args.out}")
    return 0


def cmd_control(args) -> int:
    from repro.experiments.drivers import control as driver
    cache = _resolve_cache_args(args)
    rows, fleet_rows = driver.fig_control(
        seeds=args.seeds,
        duration=(args.duration if args.duration is not None
                  else driver.DURATION),
        storm=args.storm or driver.STORM,
        fleet=not args.no_fleet,
        fleet_storm=args.fleet_storm or driver.FLEET_STORM,
        fleet_duration=(args.fleet_duration
                        if args.fleet_duration is not None
                        else driver.FLEET_DURATION),
        jobs=args.jobs, cache=cache,
        timeout=args.timeout, retries=args.retries)

    def _at(value):
        return f"{value:.2f}s" if value is not None else "-"

    print(format_table(
        f"control — static vs controller over seeds {args.seeds} "
        f"(pooled fault windows)",
        ("scheme", "steady P50", "fault P50", "fault P99", "samples",
         "transitions", "first react"),
        [(r.scheme, f"{r.steady_p50_ms:.0f} ms", f"{r.fault_p50_ms:.0f} ms",
          f"{r.fault_p99_ms:.0f} ms", str(r.fault_samples),
          str(r.transitions), _at(r.first_reaction)) for r in rows]))
    if fleet_rows:
        print(format_table(
            "control — fleet steering on the two-AP roaming topology",
            ("scheme", "fault P50", "fault P99", "samples", "moves"),
            [(r.scheme, f"{r.fault_p50_ms:.0f} ms",
              f"{r.fault_p99_ms:.0f} ms", str(r.fault_samples),
              str(r.moves)) for r in fleet_rows]))
    _maybe_prune_cache(args, cache)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"control": [dataclasses.asdict(r) for r in rows],
                       "fleet": [dataclasses.asdict(r)
                                 for r in fleet_rows]},
                      handle, indent=2)
        print(f"wrote {args.out}")
    return 0


def cmd_cache(args) -> int:
    """``repro cache verify``: checksum-audit the result cache.

    Exit status 0 when every entry verified (stale entries are fine:
    the next read evicts them) and 2 when corruption was found — the
    damaged entries are already quarantined by the time we report, so
    a rerun exits 0.
    """
    from repro.campaign.cache import ResultCache, default_cache_root
    root = Path(args.cache_dir) if args.cache_dir else default_cache_root()
    store = ResultCache(root=root)
    print(f"cache root: {root}")
    report = store.verify()
    print("\n".join(report.lines()))
    return 0 if report.clean else 2


def cmd_trace(args) -> int:
    if args.scenario:
        return _cmd_trace_events(args)
    trace = TraceSpec.for_family(args.family, duration=args.duration,
                                 seed=args.seed).build()
    trace.save(args.out)
    print(f"wrote {args.out}: {len(trace)} samples, "
          f"mean {trace.mean_bps / 1e6:.1f} Mbps")
    return 0


def _cmd_trace_events(args) -> int:
    """Run one traced scenario and write an event-trace artifact."""
    from collections import Counter

    trace_spec = TraceSpec.for_family(args.scenario,
                                      duration=args.duration + 5,
                                      seed=args.seed)
    trace_config = TraceConfig(
        events=TraceConfig.parse_events(args.events),
        out=args.out, fmt=args.format)
    spec = ScenarioSpec(trace=trace_spec, protocol=args.protocol,
                        cca=args.cca, ap_mode=args.ap,
                        duration=args.duration, seed=args.seed,
                        trace_config=trace_config)
    builder = TopologyBuilder(spec)
    builder.run()
    session = builder.trace_session

    counts = Counter(event.category for event in session.events)
    summary = ", ".join(f"{category}={count}"
                        for category, count in sorted(counts.items()))
    print(f"wrote {args.out} ({args.format}): "
          f"{len(session.events)} events ({summary or 'none'})")
    if session.auditor is not None:
        print("\n".join(session.auditor.report().format_lines()))
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
    payload = spec.as_dict()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}: {len(spec.nodes)} nodes, "
              f"{len(spec.edges)} edges, {len(spec.flows)} flows "
              f"({sum(1 for n in spec.nodes if n.role == 'ap')} APs)")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
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


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    """Bandwidth-trace selection, shared by every scenario command."""
    group = parser.add_argument_group("bandwidth trace")
    group.add_argument("--trace", default="W1", choices=TRACE_CHOICES)
    group.add_argument("--trace-file", default=None, type=_trace_file,
                       help="JSON trace file (overrides --trace)")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Event tracing (repro.obs). Named --trace-out/--trace-events
    because --trace already selects the bandwidth-trace family."""
    group = parser.add_argument_group("event tracing (repro.obs)")
    group.add_argument("--trace-out", default=None,
                       help="write an event trace of the run here "
                            "(Chrome trace_event JSON, Perfetto-openable)")
    group.add_argument("--trace-events",
                       default="queue,link,ap,cca,fault,control",
                       help="comma list of event categories to trace")
    group.add_argument("--trace-format", default="chrome",
                       choices=FORMATS)


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """Fault injection (repro.faults)."""
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


def _add_control_options(parser: argparse.ArgumentParser) -> None:
    """Adaptive control plane (repro.control)."""
    group = parser.add_argument_group("adaptive control (repro.control)")
    group.add_argument("--control", action="store_true",
                       help="attach the adaptive per-AP controller (and, "
                            "on multi-AP topologies, the fleet steering "
                            "daemon) with default settings")


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    """Explicit experiment graphs (repro.topology)."""
    group = parser.add_argument_group("topology (repro.topology)")
    group.add_argument("--topology", default=None, metavar="JSON",
                       type=_topology_file,
                       help="TopologySpec JSON file declaring an explicit "
                            "(possibly multi-AP) experiment graph; "
                            "generate presets with 'repro topology'")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    _add_trace_options(parser)
    parser.add_argument("--protocol", default="rtp", choices=("rtp", "tcp"))
    parser.add_argument("--cca", default="gcc",
                        help="gcc/nada/scream (rtp) or copa/bbr/cubic/abc (tcp)")
    parser.add_argument("--queue", default="fifo", choices=QUEUE_KINDS)
    parser.add_argument("--duration", type=_duration, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-mbps", type=_rate_mbps, default=4.0)
    parser.add_argument("--competitors", type=_count, default=0)
    parser.add_argument("--interferers", type=_count, default=0)
    _add_topology_options(parser)
    _add_obs_options(parser)
    _add_fault_options(parser)
    _add_control_options(parser)


def _add_campaign_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (<=1 runs in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/"
                             "repro-campaign)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--timeout", type=_duration, default=None,
                        help="per-cell wall-clock budget in seconds")
    parser.add_argument("--retries", type=_count, default=1,
                        help="extra attempts per failing cell")
    parser.add_argument("--cache-prune", type=_megabytes, default=None,
                        metavar="MB",
                        help="after the run, shrink the result cache to "
                             "this many megabytes (LRU by last use)")


def _add_robustness_args(parser: argparse.ArgumentParser) -> None:
    """Crash-safety and supervision knobs (campaign subcommand only)."""
    group = parser.add_argument_group("crash safety & supervision")
    group.add_argument("--journal", default=None, metavar="PATH",
                       help="append every finished cell to this "
                            "crash-safe JSONL journal (enables --resume)")
    group.add_argument("--resume", action="store_true",
                       help="restore completed cells (and, with --city, "
                            "the fleet accumulator checkpoint) from "
                            "--journal instead of recomputing them; the "
                            "result is bit-identical to an "
                            "uninterrupted run")
    group.add_argument("--checkpoint-every", type=_positive_count,
                       default=8,
                       metavar="N",
                       help="journal a consumer-state checkpoint every "
                            "N completed cells (--city only)")
    group.add_argument("--hang-timeout", type=_duration, default=None,
                       metavar="S",
                       help="SIGKILL and retry any pool worker whose "
                            "cell runs longer than S wall-clock seconds")
    group.add_argument("--mem-limit-mb", type=_megabytes, default=None,
                       metavar="MB",
                       help="degrade fleet percentiles to sketch-only "
                            "when driver RSS crosses this limit "
                            "(--city only)")
    group.add_argument("--chaos", default=None, metavar="PLAN",
                       help="deterministic harness-fault plan, e.g. "
                            "'kill-worker@2,oom@4' or 'exit-run@3' "
                            "(kinds: kill-worker, oom, hang, exit-run; "
                            "counts are 1-based campaign-wide)")
    group.add_argument("--chaos-dir", default=None, metavar="DIR",
                       help="scratch directory for the chaos plan's "
                            "cross-process counters and fire-once "
                            "markers (required with --chaos)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Zhuge (SIGCOMM 2022) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_scenario_args(run_parser)
    run_parser.add_argument("--ap", default="zhuge", choices=AP_MODES)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare",
                                    help="run plain AP vs Zhuge AP")
    _add_scenario_args(compare_parser)
    compare_parser.add_argument("--ap-modes", default="none,zhuge",
                                type=_comma_list(choices=AP_MODES),
                                help="comma list of AP modes to compare")
    compare_parser.add_argument("--jobs", type=int, default=0,
                                help="run the AP modes in parallel "
                                     "worker processes")
    compare_parser.set_defaults(func=cmd_compare)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a (traces x schemes x seeds) grid through the "
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
    campaign_parser.add_argument("--seeds", default="1,2",
                                 type=_comma_list(int),
                                 help="comma list of seeds per cell")
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
    city_group.add_argument("--aps", type=_positive_count, default=100,
                            help="AP count of the generated city")
    city_group.add_argument("--city-seed", type=int, default=1,
                            help="generator seed (same seed, same city)")
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
    campaign_parser.add_argument("--out", default=None,
                                 help="write rows + telemetry JSON here")
    campaign_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-cell progress lines")
    campaign_parser.add_argument("--assert-cached", action="store_true",
                                 help="exit non-zero unless every cell was "
                                      "a cache hit (CI smoke check)")
    campaign_parser.add_argument("--trace-dir", default=None,
                                 help="write one event-trace artifact per "
                                      "cell into this directory")
    _add_topology_options(campaign_parser)
    _add_control_options(campaign_parser)
    _add_campaign_exec_args(campaign_parser)
    _add_robustness_args(campaign_parser)
    campaign_parser.set_defaults(func=cmd_campaign)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect the campaign result cache (verify checksums, "
             "quarantine damage)")
    cache_parser.add_argument("action", choices=("verify",),
                              help="verify: checksum-audit every entry; "
                                   "corrupt ones are quarantined under "
                                   "<root>/quarantine/")
    cache_parser.add_argument("--cache-dir", default=None,
                              help="cache root (default: $REPRO_CACHE_DIR "
                                   "or ~/.cache/repro-campaign)")
    cache_parser.set_defaults(func=cmd_cache)

    resilience_parser = sub.add_parser(
        "resilience",
        help="blackout sweep: Zhuge vs passthrough vs FastAck under "
             "injected faults (repro.faults)")
    resilience_parser.add_argument("--lengths", default="0.5,1,2",
                                   type=_comma_list(_duration),
                                   help="comma list of blackout lengths "
                                        "in seconds")
    resilience_parser.add_argument("--duration", type=_duration, default=25.0)
    resilience_parser.add_argument("--seeds", default="1",
                                   type=_comma_list(int),
                                   help="comma list of seeds per cell")
    resilience_parser.add_argument("--protocol", default="tcp",
                                   choices=("rtp", "tcp"))
    resilience_parser.add_argument("--cca", default="copa")
    resilience_parser.add_argument("--out", default=None,
                                   help="write rows JSON here")
    _add_campaign_exec_args(resilience_parser)
    resilience_parser.set_defaults(func=cmd_resilience)

    control_parser = sub.add_parser(
        "control",
        help="fault-storm comparison: static Zhuge vs the adaptive "
             "controller, plus fleet steering on a two-AP topology "
             "(repro.control)")
    control_parser.add_argument("--seeds", default="1,2",
                                type=_comma_list(int),
                                help="comma list of seeds per scheme")
    control_parser.add_argument("--duration", type=_duration, default=None,
                                help="per-AP storm run length")
    control_parser.add_argument("--storm", default=None, type=_fault_dsl,
                                help="per-AP fault-plan DSL override")
    control_parser.add_argument("--no-fleet", action="store_true",
                                help="skip the two-AP steering comparison")
    control_parser.add_argument("--fleet-storm", default=None,
                                type=_fault_dsl,
                                help="fleet fault-plan DSL override")
    control_parser.add_argument("--fleet-duration", type=_duration,
                                default=None)
    control_parser.add_argument("--out", default=None,
                                help="write rows JSON here")
    _add_campaign_exec_args(control_parser)
    control_parser.set_defaults(func=cmd_control)

    trace_parser = sub.add_parser(
        "trace",
        help="record an event trace of a scenario (with a positional "
             "scenario) or generate a bandwidth-trace file (--family)")
    trace_parser.add_argument("scenario", nargs="?", default=None,
                              choices=TRACE_CHOICES, metavar="SCENARIO",
                              help="trace family to simulate with event "
                                   "tracing enabled (e.g. W2); omit for "
                                   "bandwidth-trace-file mode")
    trace_parser.add_argument("--family", default="W1",
                              choices=TRACE_CHOICES)
    trace_parser.add_argument("--duration", type=_duration, default=60.0)
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--out", required=True)
    trace_parser.add_argument("--events",
                              default="queue,link,ap,cca,fault,control",
                              help="comma list of event categories "
                                   "(event-trace mode)")
    trace_parser.add_argument("--format", default="chrome",
                              choices=FORMATS)
    trace_parser.add_argument("--protocol", default="rtp",
                              choices=PROTOCOLS)
    trace_parser.add_argument("--cca", default="gcc")
    trace_parser.add_argument("--ap", default="zhuge", choices=AP_MODES)
    trace_parser.set_defaults(func=cmd_trace)

    topology_parser = sub.add_parser(
        "topology",
        help="emit a multi-AP TopologySpec JSON preset for --topology "
             "('generate' emits a seeded repro.city topology)")
    topology_parser.add_argument("preset",
                                 choices=TOPOLOGY_PRESETS + ("generate",))
    topology_parser.add_argument("--city", default="grid",
                                 choices=sorted(CITY_PRESETS),
                                 help="city layout preset "
                                      "(generate preset)")
    topology_parser.add_argument("--aps", type=_positive_count,
                                 default=100,
                                 help="AP count (generate preset)")
    topology_parser.add_argument("--city-seed", type=int, default=1,
                                 help="generator seed (generate preset)")
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
    topology_parser.set_defaults(func=cmd_topology)

    stats_parser = sub.add_parser("trace-stats",
                                  help="summarize a trace file")
    stats_parser.add_argument("file")
    stats_parser.set_defaults(func=cmd_trace_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    protocol = getattr(args, "protocol", None)
    if protocol is not None and args.cca not in CCA_CHOICES[protocol]:
        parser.exit(2, f"repro {args.command}: error: argument --cca: "
                       f"{args.cca!r} is not valid with --protocol "
                       f"{protocol}; expected one of "
                       f"{sorted(CCA_CHOICES[protocol])}\n")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
