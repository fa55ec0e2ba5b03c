"""Ablation drivers for DESIGN.md §5 design choices.

These are not paper figures; they validate the design decisions the
paper argues for:

1. qLong/qShort decomposition vs the naive ``qSize/avg(txRate)``
   estimator (§3.1's transience-equilibrium nexus),
2. delay-delta *distribution* sampling vs direct per-ACK deltas,
3. the token bank on/off (drift of injected ACK delay),
4. maxBurstSize correction on/off (qLong accuracy under AMPDU bursts),
5. sliding-window length sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fortune_teller import FortuneTeller, NaiveQueueEstimator
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.traces.synthetic import make_trace
from repro.traces.trace import BandwidthTrace
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink


@dataclass
class EstimatorAblationRow:
    estimator: str
    window_ms: float
    median_abs_error_ms: float
    p90_abs_error_ms: float
    samples: int


def _run_estimators(trace: BandwidthTrace, estimators: dict,
                    duration: float, seed: int,
                    rate_bps: float = 4e6) -> dict[str, list[float]]:
    """Stream packets through a wireless link; for each arriving packet
    record every estimator's prediction and later the actual delay."""
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=500_000)
    link = WirelessLink(sim, WirelessChannel(trace), queue)
    built = {name: factory(sim, queue) for name, factory in estimators.items()}
    flow = FiveTuple("s", "c", 1, 2)
    rng = DeterministicRandom(seed)

    pending: dict[int, tuple[float, dict[str, float]]] = {}
    errors: dict[str, list[float]] = {name: [] for name in built}

    def deliver(packet: Packet) -> None:
        entry = pending.pop(packet.pkt_id, None)
        if entry is None:
            return
        arrived_at, predictions = entry
        actual = sim.now - arrived_at
        for name, predicted in predictions.items():
            errors[name].append(abs(predicted - actual))

    link.deliver = deliver
    interval = 1200 * 8 / rate_bps

    def send() -> None:
        packet = Packet(flow, 1200)
        predictions = {name: est.predict().total
                       for name, est in built.items()}
        pending[packet.pkt_id] = (sim.now, predictions)
        link.send(packet)
        # Bursty frame-style arrivals: occasionally send a burst.
        gap = interval * (0.2 if rng.random() < 0.3 else 1.5)
        if sim.now < duration:
            sim.schedule(gap, send)

    sim.schedule(0.0, send)
    sim.run(until=duration)
    return errors


def estimator_ablation(duration: float = 30.0, seed: int = 1,
                       trace_name: str = "W1") -> list[EstimatorAblationRow]:
    """Design choices 1, 4, 5: estimator variants on one trace."""
    from repro.metrics.stats import percentile
    trace = make_trace(trace_name, duration=duration, seed=seed)
    estimators = {
        "naive(qSize/txRate)": lambda sim, q: NaiveQueueEstimator(sim, q),
        "zhuge(40ms)": lambda sim, q: FortuneTeller(sim, q, window=0.040),
        "zhuge(10ms)": lambda sim, q: FortuneTeller(sim, q, window=0.010),
        "zhuge(160ms)": lambda sim, q: FortuneTeller(sim, q, window=0.160),
        "zhuge(no-burst-corr)": lambda sim, q: FortuneTeller(
            sim, q, burst_correction=False),
    }
    errors = _run_estimators(trace, estimators, duration, seed)
    windows = {"naive(qSize/txRate)": 40.0, "zhuge(40ms)": 40.0,
               "zhuge(10ms)": 10.0, "zhuge(160ms)": 160.0,
               "zhuge(no-burst-corr)": 40.0}
    rows = []
    for name, errs in errors.items():
        rows.append(EstimatorAblationRow(
            estimator=name, window_ms=windows[name],
            median_abs_error_ms=percentile(errs, 50) * 1000 if errs else 0.0,
            p90_abs_error_ms=percentile(errs, 90) * 1000 if errs else 0.0,
            samples=len(errs),
        ))
    return rows


@dataclass
class FeedbackAblationRow:
    variant: str
    mean_injected_ms: float
    p99_injected_ms: float
    drift_ms: float  # mean(last quarter) - mean(first quarter)


def feedback_ablation(acks: int = 5000, seed: int = 1
                      ) -> list[FeedbackAblationRow]:
    """Design choices 2 and 3: distributional sampling and tokens."""
    from repro.core.feedback_updater import OutOfBandFeedbackUpdater
    from repro.metrics.stats import percentile
    variants = {
        "distributional+tokens": dict(distributional=True, use_tokens=True),
        "distributional,no-tokens": dict(distributional=True,
                                         use_tokens=False),
        "per-packet+tokens": dict(distributional=False, use_tokens=True),
    }
    rows = []
    for name, options in variants.items():
        sim = Simulator()
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(
            sim, teller, rng=DeterministicRandom(seed),
            max_extra_delay=10.0, **options)
        rng = DeterministicRandom(seed + 1)
        injected = []
        t = 0.0
        for _ in range(acks):
            updater.bank(t, rng.gauss(0.0, 0.003))
            injected.append(updater.ack_delay(t))
            t += 0.002
        quarter = len(injected) // 4
        rows.append(FeedbackAblationRow(
            variant=name,
            mean_injected_ms=sum(injected) / len(injected) * 1000,
            p99_injected_ms=percentile(injected, 99) * 1000,
            drift_ms=(sum(injected[-quarter:]) / quarter
                      - sum(injected[:quarter]) / quarter) * 1000,
        ))
    return rows
