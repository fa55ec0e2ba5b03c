"""Synthetic bandwidth-trace generators calibrated to the paper.

We cannot ship the paper's captures (production WiFi/cellular networks),
so each generator is a seeded stochastic model tuned so that:

* mean goodput matches what the paper reports (Appendix A: ~21 Mbps for
  the restaurant WiFi, ~27 Mbps for the office WiFi; typical 4G/5G
  ranges for the cellular traces), and
* the tail of available-bandwidth reduction ratios matches Fig. 3b
  (0.6–7.3% of 200 ms windows showing a >=10x drop for wireless,
  <0.1% for Ethernet).

The model per trace: a slowly-wandering base rate (bounded random walk
in log space, capturing user mobility / load shifts), multiplicative
per-sample fading noise (lognormal), and Poisson "deep fade" events in
which the rate collapses by a heavy-tailed factor for a short duration
(wireless contention bursts / handovers). ``tests/traces`` and the
Fig. 3b bench validate the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.random import DeterministicRandom
from repro.traces.trace import BandwidthTrace

TRACE_NAMES = ("W1", "W2", "C1", "C2", "C3")


@dataclass(frozen=True)
class TraceModel:
    """Parameters of one synthetic trace family."""

    name: str
    mean_bps: float
    fade_sigma: float          # lognormal sigma of per-sample fading
    walk_sigma: float          # log-space random-walk step of the base rate
    deep_fade_rate: float      # deep fades per second
    deep_fade_depth: float     # pareto alpha for the collapse factor
    deep_fade_duration: float  # mean fade duration (seconds)
    min_bps: float = 100_000.0


# Calibrated families. Depth alpha smaller => heavier >=10x tail.
# Targets from Fig. 3b: wireless traces show 0.6-7.3% of 200 ms windows
# with a >=10x reduction; 5G mmWave (C3) is the most violent.
TRACE_MODELS: dict[str, TraceModel] = {
    # W1: crowded-restaurant 2.4 GHz WiFi, mean ~21 Mbps, heavy contention.
    "W1": TraceModel("W1", 21e6, fade_sigma=0.45, walk_sigma=0.06,
                     deep_fade_rate=0.5, deep_fade_depth=0.5,
                     deep_fade_duration=0.5, min_bps=300_000.0),
    # W2: office 5 GHz WiFi, mean ~27 Mbps, milder but still bursty.
    "W2": TraceModel("W2", 27e6, fade_sigma=0.35, walk_sigma=0.05,
                     deep_fade_rate=0.3, deep_fade_depth=0.55,
                     deep_fade_duration=0.4, min_bps=300_000.0),
    # C1: indoor mixed 4G/5G; RAT switches produce large rate jumps.
    "C1": TraceModel("C1", 60e6, fade_sigma=0.55, walk_sigma=0.08,
                     deep_fade_rate=0.4, deep_fade_depth=0.6,
                     deep_fade_duration=0.6, min_bps=300_000.0),
    # C2: metropolitan 4G; moderate mean with mobility fades.
    "C2": TraceModel("C2", 35e6, fade_sigma=0.50, walk_sigma=0.07,
                     deep_fade_rate=0.4, deep_fade_depth=0.6,
                     deep_fade_duration=0.5, min_bps=300_000.0),
    # C3: metropolitan 5G (mmWave-like): high mean, violent blockage fades.
    "C3": TraceModel("C3", 120e6, fade_sigma=0.60, walk_sigma=0.09,
                     deep_fade_rate=0.8, deep_fade_depth=0.45,
                     deep_fade_duration=0.7, min_bps=300_000.0),
}


def make_trace(name: str, duration: float = 300.0, seed: int = 1,
               interval: float = 0.040) -> BandwidthTrace:
    """Generate one synthetic trace of family ``name``.

    ``interval`` defaults to 40 ms so that the 200 ms ABW windows of the
    Fig. 3b analysis each average five samples, as in the paper's
    methodology.
    """
    if name not in TRACE_MODELS:
        raise ValueError(f"unknown trace {name!r}; expected one of {TRACE_NAMES}")
    model = TRACE_MODELS[name]
    rng = DeterministicRandom(seed).fork(f"trace-{name}")
    count = max(2, round(duration / interval))

    rates: list[float] = []
    log_base = math.log(model.mean_bps)
    log_anchor = log_base
    fade_until = -1.0
    fade_factor = 1.0
    time = 0.0
    for _ in range(count):
        # Bounded random walk of the base rate (mean-reverting in log space).
        log_anchor += rng.gauss(0.0, model.walk_sigma)
        log_anchor += 0.05 * (log_base - log_anchor)

        # Poisson deep-fade arrivals.
        if time >= fade_until and rng.random() < model.deep_fade_rate * interval:
            collapse = 1.0 + rng.pareto(model.deep_fade_depth)
            fade_factor = 1.0 / collapse
            fade_until = time + rng.expovariate(1.0 / model.deep_fade_duration)
        if time >= fade_until:
            fade_factor = 1.0

        fading = rng.lognormal(0.0, model.fade_sigma)
        rate = math.exp(log_anchor) * fading * fade_factor
        rates.append(max(model.min_bps, rate))
        time += interval

    # Normalize so the realized mean matches the model mean.
    realized = sum(rates) / len(rates)
    scale = model.mean_bps / realized
    rates = [max(model.min_bps, r * scale) for r in rates]
    return BandwidthTrace(rates, interval, name,
                          extra={"family": name, "seed": seed})


def ethernet_trace(duration: float = 300.0, seed: int = 1,
                   mean_bps: float = 100e6,
                   interval: float = 0.040) -> BandwidthTrace:
    """Wired access: near-constant rate with tiny jitter (<0.1% big drops)."""
    rng = DeterministicRandom(seed).fork("trace-eth")
    count = max(2, round(duration / interval))
    rates = [mean_bps * (1.0 + rng.gauss(0.0, 0.02)) for _ in range(count)]
    rates = [max(mean_bps * 0.5, r) for r in rates]
    return BandwidthTrace(rates, interval, "eth", extra={"family": "eth"})


def abc_legacy_trace(duration: float = 300.0, seed: int = 1,
                     interval: float = 0.040) -> BandwidthTrace:
    """Legacy cellular trace in the style of the ABC paper's datasets.

    Appendix B notes these traces have an average available bandwidth an
    order of magnitude below the five main traces, with strong
    fluctuation — we model a ~3 Mbps mean Verizon-LTE-like channel.
    """
    model = TraceModel("abc-legacy", 3e6, fade_sigma=0.6, walk_sigma=0.10,
                       deep_fade_rate=0.15, deep_fade_depth=1.2,
                       deep_fade_duration=0.8, min_bps=50_000.0)
    rng = DeterministicRandom(seed).fork("trace-abc-legacy")
    count = max(2, round(duration / interval))
    rates: list[float] = []
    log_base = math.log(model.mean_bps)
    log_anchor = log_base
    fade_until = -1.0
    fade_factor = 1.0
    time = 0.0
    for _ in range(count):
        log_anchor += rng.gauss(0.0, model.walk_sigma)
        log_anchor += 0.05 * (log_base - log_anchor)
        if time >= fade_until and rng.random() < model.deep_fade_rate * interval:
            collapse = 1.0 + rng.pareto(model.deep_fade_depth)
            fade_factor = 1.0 / collapse
            fade_until = time + rng.expovariate(1.0 / model.deep_fade_duration)
        if time >= fade_until:
            fade_factor = 1.0
        fading = rng.lognormal(0.0, model.fade_sigma)
        rates.append(max(model.min_bps,
                         math.exp(log_anchor) * fading * fade_factor))
        time += interval
    realized = sum(rates) / len(rates)
    rates = [max(model.min_bps, r * model.mean_bps / realized) for r in rates]
    return BandwidthTrace(rates, interval, "abc-legacy",
                          extra={"family": "abc-legacy", "seed": seed})


def drop_steps(base_bps: float, k: float, drop_at: float, duration: float,
               recover_at: float | None = None
               ) -> tuple[tuple[float, float], ...]:
    """``(seconds, bps)`` segments of the bandwidth-drop step trace.

    Rate is ``base_bps`` until ``drop_at``, then ``base_bps / k`` until
    ``recover_at`` (or the end).
    """
    if k < 1:
        raise ValueError(f"drop factor k must be >= 1: {k}")
    low = base_bps / k
    if recover_at is None:
        return ((drop_at, base_bps), (duration - drop_at, low))
    return ((drop_at, base_bps), (recover_at - drop_at, low),
            (duration - recover_at, base_bps))


def drop_trace(base_bps: float, k: float, drop_at: float,
               duration: float, recover_at: float | None = None,
               interval: float = 0.010) -> BandwidthTrace:
    """Step trace for the bandwidth-drop microbenchmarks (Figs. 4/14/15);
    :meth:`repro.traces.spec.TraceSpec.drop` references the same one."""
    return BandwidthTrace.from_steps(
        drop_steps(base_bps, k, drop_at, duration, recover_at), interval,
        f"drop-{k:g}x")
