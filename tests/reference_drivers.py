"""Oracles for the figure drivers: the serial bodies they replace.

Before every scenario figure was a spec list and a reducer joined by
one ``run_specs`` call, five drivers ran their own path from specs to
rows:

* ``fig18_testbed`` (``drivers/testbed.py``), ``fig19_prediction_accuracy``
  (``drivers/accuracy.py``) and ``run_drop`` (``drivers/convergence.py``)
  looped over ``TopologyBuilder(spec).run()``, and Figs. 4, 14 and 15
  called ``run_drop`` once per cell;
* ``row_from_summaries`` pooled a row's samples itself and could keep
  them (``keep_samples``), which ``fig13_distributions`` read its CCDFs
  from, over ``scheme_specs`` / ``_evaluate_grid``;
* ``repro campaign`` built its Fig. 11 grid and sliced its rows itself
  (``campaign_grid_rows`` below is that block of ``cmd_campaign`` as a
  function of the parsed flags and a cell runner).

The bodies are kept verbatim, with the imports they need and the
``TraceRow`` that still carried the kept samples.
``tests/test_driver_equivalence.py`` requires the drivers' rows to
equal these on short cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.experiments.drivers.accuracy import AccuracyResult
from repro.experiments.drivers.convergence import (BASE_RATE, DROP_AT,
                                                   FIG4_CCAS, FIG4_QUEUES,
                                                   OBSERVE, VIDEO_CAP,
                                                   DropRow)
from repro.experiments.drivers.testbed import TestbedRow, _scenario_config
from repro.experiments.drivers.traces_eval import (RTP_SCHEMES,
                                                   SCHEMES_BY_NAME,
                                                   TCP_SCHEMES)
from repro.metrics.stats import ccdf_points, tail_fraction
from repro.obs.audit import PredictionAuditor
from repro.topology.builder import TopologyBuilder


@dataclass
class TraceRow:
    """One (trace, scheme) evaluation result."""

    trace: str
    scheme: str
    rtt_tail_ratio: float       # P(network RTT > 200 ms)
    delayed_frame_ratio: float  # P(frame delay > 400 ms)
    low_fps_ratio: float        # P(per-second frame rate < 10 fps)
    mean_bitrate_bps: float
    rtt_samples: list[float] | None = None
    frame_delay_samples: list[float] | None = None
    fps_samples: list[float] | None = None


def fig18_testbed(scenarios=("scp", "mcs", "raw"), duration: float = 60.0,
                  seeds: tuple[int, ...] = (1, 2)) -> list[TestbedRow]:
    rows = []
    for scenario in scenarios:
        for scheme, overrides in RTP_SCHEMES:
            rtt_tails, delayed, bitrates = [], [], []
            for seed in seeds:
                spec = _scenario_config(scenario, duration, seed,
                                        dict(overrides))
                result = TopologyBuilder(spec).run()
                rtt_tails.append(result.rtt.tail_ratio())
                delayed.append(result.frames.delayed_ratio())
                bitrates.append(result.flows[0].mean_bitrate_bps)
            count = len(seeds)
            rows.append(TestbedRow(
                scenario=scenario, scheme=scheme,
                rtt_tail_ratio=sum(rtt_tails) / count,
                delayed_frame_ratio=sum(delayed) / count,
                mean_bitrate_bps=sum(bitrates) / count,
            ))
    return rows


def fig19_prediction_accuracy(traces=("W1", "W2", "C1", "C2"),
                              duration: float = 40.0,
                              seed: int = 1) -> list[AccuracyResult]:
    """Per-trace prediction error of the Fortune Teller under Zhuge."""
    results = []
    for trace_name in traces:
        spec = ScenarioSpec(
            trace=TraceSpec.for_family(trace_name, duration=duration,
                                       seed=seed),
            protocol="rtp", ap_mode="zhuge", duration=duration, seed=seed,
            record_predictions=True)
        result = TopologyBuilder(spec).run()
        report = PredictionAuditor.from_pairs(
            zip(result.predicted, result.actual)).report(cdf_resolution=30)
        results.append(AccuracyResult(
            trace=trace_name,
            error_cdf=report.error_cdf,
            median_error=report.p50,
            p90_error=report.p90,
            p95_error=report.p95,
            p99_error=report.p99,
            heatmap=report.heatmap,
            pairs=report.pairs,
        ))
    return results


def run_drop(scheme: str, overrides: dict, k: float, seed: int = 1,
             max_bps: float = VIDEO_CAP) -> DropRow:
    """One bandwidth-drop run; measures degradation durations."""
    duration = DROP_AT + OBSERVE
    trace = TraceSpec.drop(BASE_RATE, k=k, drop_at=DROP_AT,
                           duration=duration)
    spec = ScenarioSpec(trace=trace, duration=duration, seed=seed,
                        wan_delay=0.025, max_bps=max_bps,
                        warmup=2.0, **overrides)
    result = TopologyBuilder(spec).run()
    flow = result.flows[0]

    rtt_duration = flow.rtt.degradation_duration(0.200, start=DROP_AT)
    frame_duration = flow.frames.delay_degradation_duration(0.400,
                                                            start=DROP_AT)
    low_fps = flow.frames.low_fps_duration(OBSERVE, start=DROP_AT)
    return DropRow(scheme=scheme, k=k,
                   rtt_degradation_s=rtt_duration,
                   frame_delay_degradation_s=frame_duration,
                   low_fps_duration_s=low_fps,
                   rate_reconvergence_s=_reconvergence(result, k))


def _reconvergence(result, k: float) -> float:
    """Fig. 4b metric: time for the sending rate to settle under the
    post-drop capacity (with 1.3x slack)."""
    # Rate above capacity shows as delay growth in the RTT series.
    # Re-convergence = last time network RTT exceeded 200 ms.
    flow = result.flows[0]
    violations = [t for t, r in zip(flow.rtt.times, flow.rtt.rtts)
                  if t >= DROP_AT and r > 0.200]
    if not violations:
        return 0.0
    return max(violations) - DROP_AT


def fig4_cca_convergence(ks=(2, 5, 10, 20, 50),
                         seed: int = 1) -> list[DropRow]:
    """Fig. 4: convergence duration for CUBIC/BBR/Copa x FIFO/CoDel (TCP)
    and GCC x FIFO/CoDel (RTP), without Zhuge.

    Unlike Figs. 14/15 (rate-capped video), Fig. 4 studies the CCAs
    themselves, so the flows here are allowed to fill the 30 Mbps link.
    """
    rows = []
    greedy_cap = 25e6
    for k in ks:
        for cca_name, cca in FIG4_CCAS:
            for queue_name, queue in FIG4_QUEUES:
                rows.append(run_drop(
                    f"{cca_name}+{queue_name}",
                    dict(protocol="tcp", cca=cca, queue_kind=queue,
                         app="bulk"),
                    k, seed, max_bps=greedy_cap))
        for queue_name, queue in FIG4_QUEUES:
            rows.append(run_drop(
                f"Gcc+{queue_name}",
                dict(protocol="rtp", ap_mode="none", queue_kind=queue),
                k, seed, max_bps=greedy_cap))
    return rows


def fig14_rtp_drop(ks=(2, 5, 10, 20, 50), seed: int = 1) -> list[DropRow]:
    """Fig. 14: RTP schemes under ABW drop."""
    return [run_drop(name, overrides, k, seed)
            for k in ks for name, overrides in RTP_SCHEMES]


def fig15_tcp_drop(ks=(2, 5, 10, 20, 50), seed: int = 1) -> list[DropRow]:
    """Fig. 15: TCP schemes under ABW drop."""
    return [run_drop(name, overrides, k, seed)
            for k in ks for name, overrides in TCP_SCHEMES]


def scheme_specs(trace_name: str, overrides: dict, duration: float,
                 seeds: tuple[int, ...]) -> list[ScenarioSpec]:
    """One spec per seed for a (trace, scheme) row."""
    return [ScenarioSpec(trace=TraceSpec.for_family(trace_name,
                                                    duration=duration,
                                                    seed=seed),
                         duration=duration, seed=seed, **overrides)
            for seed in seeds]


def row_from_summaries(trace_name: str, scheme_name: str, overrides: dict,
                       summaries, duration: float,
                       keep_samples: bool = False) -> TraceRow:
    """Aggregate one row from its per-seed summaries (seed order)."""
    rtts: list[float] = []
    delays: list[float] = []
    fps: list[float] = []
    bitrates: list[float] = []
    for summary in summaries:
        warmup = summary.spec.warmup
        rtts.extend(summary.rtt.rtts)
        delays.extend(summary.frames.frame_delays)
        fps.extend(summary.frames.per_second_fps(
            duration - warmup, start=warmup))
        if overrides.get("protocol") == "tcp":
            # A window CCA's cwnd/srtt estimate is not a bitrate;
            # report delivered goodput instead.
            bitrates.append(summary.flows[0].goodput_bps)
        else:
            bitrates.append(summary.flows[0].mean_bitrate_bps)

    return TraceRow(
        trace=trace_name,
        scheme=scheme_name,
        rtt_tail_ratio=tail_fraction(rtts, 0.200),
        delayed_frame_ratio=tail_fraction(delays, 0.400),
        low_fps_ratio=tail_fraction(fps, 10.0, above=False),
        mean_bitrate_bps=sum(bitrates) / len(bitrates),
        rtt_samples=rtts if keep_samples else None,
        frame_delay_samples=delays if keep_samples else None,
        fps_samples=fps if keep_samples else None,
    )


def _evaluate_grid(grid, duration: float, seeds: tuple[int, ...],
                   jobs: int, cache,
                   keep_samples: bool = False) -> list[TraceRow]:
    """Run every (trace, scheme) pair of ``grid`` as one campaign."""
    specs: list[ScenarioSpec] = []
    for trace_name, _, overrides in grid:
        specs.extend(scheme_specs(trace_name, overrides, duration, seeds))
    summaries = run_specs(specs, jobs=jobs, cache=cache)
    rows = []
    for position, (trace_name, scheme_name, overrides) in enumerate(grid):
        chunk = summaries[position * len(seeds):(position + 1) * len(seeds)]
        rows.append(row_from_summaries(trace_name, scheme_name, overrides,
                                       chunk, duration, keep_samples))
    return rows


def fig13_distributions(trace_name: str = "W1", duration: float = 60.0,
                        seeds: tuple[int, ...] = (1, 2),
                        jobs: int = 0, cache=None) -> dict:
    """Fig. 13: 1-CDF curves (RTT, frame delay, frame rate) per scheme."""
    grid = [(trace_name, scheme_name, overrides)
            for scheme_name, overrides in RTP_SCHEMES]
    rows = _evaluate_grid(grid, duration, seeds, jobs, cache,
                          keep_samples=True)
    curves: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for row in rows:
        curves[row.scheme] = {
            "rtt_ccdf": ccdf_points(row.rtt_samples, points=40),
            "frame_delay_ccdf": ccdf_points(row.frame_delay_samples,
                                            points=40),
            "fps_cdf": ccdf_points([-f for f in row.fps_samples], points=40),
        }
    return curves


def campaign_grid_rows(traces, schemes, seeds, duration,
                       run) -> list[TraceRow]:
    """``cmd_campaign``'s grid and rows: ``traces`` / ``schemes`` /
    ``seeds`` as their flags parsed, ``run(specs)`` the summaries."""
    grid = [(trace, scheme) for trace in traces for scheme in schemes]
    specs = []
    for trace, scheme in grid:
        specs.extend(scheme_specs(trace, SCHEMES_BY_NAME[scheme],
                                  duration, seeds))
    summaries = run(specs)
    rows = []
    for position, (trace, scheme) in enumerate(grid):
        chunk = summaries[position * len(seeds):
                          (position + 1) * len(seeds)]
        row = row_from_summaries(trace, scheme, SCHEMES_BY_NAME[scheme],
                                 chunk, duration)
        rows.append(row)
    return rows
