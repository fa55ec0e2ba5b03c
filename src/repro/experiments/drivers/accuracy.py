"""Fortune Teller accuracy drivers (Figs. 7 and 19).

Fig. 7 is the illustrative time series: qLong and qShort responding to
an ABW drop — qShort reacts within milliseconds, qLong takes over once
the queue has built.

Fig. 19 is the accuracy study: per-packet predicted vs actual delay,
as an error distribution per trace plus a predicted-vs-real heatmap.
Its statistics are computed by the :mod:`repro.obs` prediction auditor
(:class:`~repro.obs.audit.PredictionAuditor`) over the run's recorded
``predicted`` / ``actual`` columns — the same pairs, and so the same
numbers, a traced run's auditor reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.obs.audit import PredictionAuditor
from repro.sim.engine import Simulator
from repro.traces.trace import BandwidthTrace
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink


@dataclass
class Fig7Point:
    time_ms: float
    q_long_ms: float
    q_short_ms: float
    tx_rate_mbps: float
    queue_kb: float


def fig7_qlong_qshort(drop_at_ms: float = 5.0,
                      duration_ms: float = 30.0) -> list[Fig7Point]:
    """Reproduce Fig. 7: estimator response to an ABW drop at t=5 ms.

    A steady 20 Mbps packet stream flows through a wireless link whose
    capacity collapses 20x at ``drop_at_ms``; we sample qLong and qShort
    every 0.5 ms.
    """
    sim = Simulator()
    trace = BandwidthTrace.from_steps(
        [(drop_at_ms / 1000, 20e6),
         ((duration_ms - drop_at_ms) / 1000, 1e6)], interval=0.0005)
    queue = DropTailQueue(capacity_bytes=1_000_000)
    link = WirelessLink(sim, WirelessChannel(trace), queue,
                        max_ampdu_packets=4, per_txop_overhead=0.0001)
    link.deliver_batch = lambda packets: None
    teller = FortuneTeller(sim, queue, window=0.010)

    flow = FiveTuple("s", "c", 1, 2)
    interval = 1200 * 8 / 20e6  # packets arriving at exactly 20 Mbps

    def send() -> None:
        link.send(Packet(flow, 1200))
        sim.schedule(interval, send)

    points: list[Fig7Point] = []

    def sample() -> None:
        prediction = teller.predict()
        points.append(Fig7Point(
            time_ms=sim.now * 1000,
            q_long_ms=prediction.q_long * 1000,
            q_short_ms=prediction.q_short * 1000,
            tx_rate_mbps=teller.tx_rate.rate_bps(sim.now) / 1e6,
            queue_kb=queue.byte_length / 1000,
        ))
        if sim.now * 1000 < duration_ms:
            sim.schedule(0.0005, sample)

    sim.schedule(0.0, send)
    sim.schedule(0.0, sample)
    sim.run(until=duration_ms / 1000)
    return points


@dataclass
class AccuracyResult:
    trace: str
    error_cdf: list[tuple[float, float]]   # (abs error seconds, P<=)
    median_error: float
    p90_error: float
    p95_error: float
    p99_error: float
    heatmap: dict[tuple[int, int], int]    # (pred_bin, real_bin) -> count
    pairs: int


def fig19_prediction_accuracy(traces=("W1", "W2", "C1", "C2"),
                              duration: float = 40.0,
                              seed: int = 1) -> list[AccuracyResult]:
    """Per-trace prediction error of the Fortune Teller under Zhuge."""
    specs = [ScenarioSpec(
                 trace=TraceSpec.for_family(trace_name, duration=duration,
                                            seed=seed),
                 protocol="rtp", ap_mode="zhuge", duration=duration,
                 seed=seed, record_predictions=True)
             for trace_name in traces]
    results = []
    for trace_name, summary in zip(traces, run_specs(specs)):
        report = PredictionAuditor.from_pairs(
            zip(summary.predicted, summary.actual)).report(cdf_resolution=30)
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
