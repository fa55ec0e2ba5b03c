"""Trace-driven evaluation drivers (Figs. 11, 12, 13, 22; Table 3).

One row per (trace, scheme): tail-latency ratio, delayed-frame ratio,
and low-frame-rate ratio, per the paper's §7.2 metrics.

A figure is a grid of ``(trace, scheme, overrides)`` rows. Its specs
come from :func:`grid_specs` (one cell per row and seed, row-major),
run through one :func:`repro.campaign.run_specs` call (``jobs=4`` fans
the figure out over worker processes, ``cache=...`` reuses cells), and
:func:`grid_rows` reduces the summaries: :func:`seed_split` cuts them
into one seed-ordered chunk per row and :func:`pooled` pools a chunk's
samples. ``python -m repro campaign`` builds its grid and rows with
the same two functions. The other scenario figures split and pool
through the same helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.metrics.stats import ccdf_points, tail_fraction

RTP_SCHEMES = (
    ("Gcc+FIFO", dict(protocol="rtp", cca="gcc", ap_mode="none",
                      queue_kind="fifo")),
    ("Gcc+CoDel", dict(protocol="rtp", cca="gcc", ap_mode="none",
                       queue_kind="codel")),
    ("Gcc+Zhuge", dict(protocol="rtp", cca="gcc", ap_mode="zhuge",
                       queue_kind="fifo")),
)

TCP_SCHEMES = (
    ("Copa", dict(protocol="tcp", cca="copa", ap_mode="none")),
    ("Copa+FastAck", dict(protocol="tcp", cca="copa", ap_mode="fastack")),
    ("ABC", dict(protocol="tcp", cca="abc", ap_mode="abc")),
    ("Copa+Zhuge", dict(protocol="tcp", cca="copa", ap_mode="zhuge")),
)

#: name -> overrides for every scheme above (CLI campaign grids use this).
SCHEMES_BY_NAME = {name: overrides
                   for name, overrides in RTP_SCHEMES + TCP_SCHEMES}


@dataclass
class TraceRow:
    """One (trace, scheme) evaluation result."""

    trace: str
    scheme: str
    rtt_tail_ratio: float       # P(network RTT > 200 ms)
    delayed_frame_ratio: float  # P(frame delay > 400 ms)
    low_fps_ratio: float        # P(per-second frame rate < 10 fps)
    mean_bitrate_bps: float


def seed_split(summaries, seeds) -> list:
    """Cut row-major cells (every row's seeds in turn) into one
    seed-ordered chunk per row."""
    if not seeds:
        raise ValueError("seeds must not be empty")
    width = len(seeds)
    return [summaries[start:start + width]
            for start in range(0, len(summaries), width)]


def pooled(summaries, duration: float
           ) -> tuple[list[float], list[float], list[float]]:
    """RTT, frame-delay and per-second frame-rate samples of
    ``summaries``, pooled in order; frame rates from the warm-up on."""
    rtts: list[float] = []
    delays: list[float] = []
    fps: list[float] = []
    for summary in summaries:
        warmup = summary.spec.warmup
        rtts.extend(summary.rtt.rtts)
        delays.extend(summary.frames.frame_delays)
        fps.extend(summary.frames.per_second_fps(
            duration - warmup, start=warmup))
    return rtts, delays, fps


def grid_specs(grid, duration: float,
               seeds: tuple[int, ...]) -> list[ScenarioSpec]:
    """One spec per (trace, scheme, overrides) row of ``grid`` and
    seed, row-major."""
    return [ScenarioSpec(trace=TraceSpec.for_family(trace_name,
                                                    duration=duration,
                                                    seed=seed),
                         duration=duration, seed=seed, **overrides)
            for trace_name, _, overrides in grid
            for seed in seeds]


def row_from_summaries(trace_name: str, scheme_name: str, overrides: dict,
                       summaries, duration: float) -> TraceRow:
    """Aggregate one row from its per-seed summaries (seed order)."""
    rtts, delays, fps = pooled(summaries, duration)
    if overrides.get("protocol") == "tcp":
        # A window CCA's cwnd/srtt estimate is not a bitrate;
        # report delivered goodput instead.
        bitrates = [summary.flows[0].goodput_bps for summary in summaries]
    else:
        bitrates = [summary.flows[0].mean_bitrate_bps
                    for summary in summaries]
    return TraceRow(
        trace=trace_name,
        scheme=scheme_name,
        rtt_tail_ratio=tail_fraction(rtts, 0.200),
        delayed_frame_ratio=tail_fraction(delays, 0.400),
        low_fps_ratio=tail_fraction(fps, 10.0, above=False),
        mean_bitrate_bps=sum(bitrates) / len(bitrates),
    )


def grid_rows(grid, summaries, duration: float,
              seeds: tuple[int, ...]) -> list[TraceRow]:
    """One row per (trace, scheme, overrides) of ``grid`` from the
    summaries of its :func:`grid_specs`, in order."""
    return [row_from_summaries(trace_name, scheme_name, overrides, chunk,
                               duration)
            for (trace_name, scheme_name, overrides), chunk
            in zip(grid, seed_split(summaries, seeds))]


def _evaluate_grid(grid, duration: float, seeds: tuple[int, ...],
                   jobs: int, cache) -> list[TraceRow]:
    """Run every (trace, scheme) pair of ``grid`` as one campaign."""
    summaries = run_specs(grid_specs(grid, duration, seeds), jobs=jobs,
                          cache=cache)
    return grid_rows(grid, summaries, duration, seeds)


def fig11_rtp_traces(traces=("W1", "W2", "C1", "C2", "C3"),
                     duration: float = 60.0,
                     seeds: tuple[int, ...] = (1, 2),
                     jobs: int = 0, cache=None) -> list[TraceRow]:
    """Fig. 11: RTP/RTCP schemes over the five traces."""
    grid = [(trace_name, scheme_name, overrides)
            for trace_name in traces
            for scheme_name, overrides in RTP_SCHEMES]
    return _evaluate_grid(grid, duration, seeds, jobs, cache)


def fig12_tcp_traces(traces=("W1", "W2", "C1", "C2", "C3"),
                     duration: float = 60.0,
                     seeds: tuple[int, ...] = (1, 2),
                     jobs: int = 0, cache=None) -> list[TraceRow]:
    """Fig. 12: TCP schemes over the five traces."""
    grid = [(trace_name, scheme_name, overrides)
            for trace_name in traces
            for scheme_name, overrides in TCP_SCHEMES]
    return _evaluate_grid(grid, duration, seeds, jobs, cache)


def fig13_distributions(trace_name: str = "W1", duration: float = 60.0,
                        seeds: tuple[int, ...] = (1, 2),
                        jobs: int = 0, cache=None) -> dict:
    """Fig. 13: 1-CDF curves (RTT, frame delay, frame rate) per scheme."""
    grid = [(trace_name, scheme_name, overrides)
            for scheme_name, overrides in RTP_SCHEMES]
    summaries = run_specs(grid_specs(grid, duration, seeds), jobs=jobs,
                          cache=cache)
    curves: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for (_, scheme_name, _), chunk in zip(grid,
                                          seed_split(summaries, seeds)):
        rtts, delays, fps = pooled(chunk, duration)
        curves[scheme_name] = {
            "rtt_ccdf": ccdf_points(rtts, points=40),
            "frame_delay_ccdf": ccdf_points(delays, points=40),
            "fps_cdf": ccdf_points([-f for f in fps], points=40),
        }
    return curves


def fig22_framerate(duration: float = 60.0,
                    seeds: tuple[int, ...] = (1, 2),
                    jobs: int = 0, cache=None) -> list[TraceRow]:
    """Fig. 22: low-frame-rate ratios over traces for RTP and TCP."""
    grid = [(trace_name, scheme_name, overrides)
            for trace_name in ("W1", "W2", "C1", "C2", "C3")
            for scheme_name, overrides in RTP_SCHEMES + TCP_SCHEMES]
    return _evaluate_grid(grid, duration, seeds, jobs, cache)


def table3_abc_traces(duration: float = 60.0,
                      seeds: tuple[int, ...] = (1, 2),
                      jobs: int = 0, cache=None) -> list[TraceRow]:
    """Table 3: Copa / ABC / Copa+Zhuge on the ABC-legacy trace."""
    grid = [("ABC-legacy", name, overrides)
            for name, overrides in TCP_SCHEMES
            if name in ("Copa", "ABC", "Copa+Zhuge")]
    return _evaluate_grid(grid, duration, seeds, jobs, cache)
