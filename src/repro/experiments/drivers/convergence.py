"""Bandwidth-drop convergence drivers (Figs. 4, 14, 15).

The paper's setup: a 50 ms-RTT, 30 Mbps link; once the CCA reaches
steady state the bandwidth drops by k. We measure, from the drop until
the end of the observation window:

* duration of network RTT > 200 ms,
* duration of frame delay > 400 ms,
* duration of per-second frame rate < 10 fps (Figs. 14/15 (c)),
* CCA re-convergence duration (Fig. 4b): time until the sending rate
  stays within 1.3x of the post-drop capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.experiments.drivers.traces_eval import RTP_SCHEMES, TCP_SCHEMES

DROP_AT = 15.0
OBSERVE = 15.0           # seconds after the drop
BASE_RATE = 30e6
# The stream must be able to out-demand the post-drop capacity for the
# drop to congest at all; 8 Mbps keeps k=2 harmless (15 Mbps left) while
# k >= 5 bites, which reproduces the paper's k-sweep shape.
VIDEO_CAP = 8e6


@dataclass
class DropRow:
    """One (scheme, k) bandwidth-drop measurement."""

    scheme: str
    k: float
    rtt_degradation_s: float
    frame_delay_degradation_s: float
    low_fps_duration_s: float
    rate_reconvergence_s: float


FIG4_CCAS = (
    ("Cubic", "cubic"),
    ("Bbr", "bbr"),
    ("Copa", "copa"),
)
FIG4_QUEUES = (("FIFO", "fifo"), ("CoDel", "codel"))


def _drop_rows(cells, seed: int, max_bps: float) -> list[DropRow]:
    """Run the ``(scheme, overrides, k)`` cells as one campaign and
    measure each run's degradation durations."""
    duration = DROP_AT + OBSERVE
    specs = [ScenarioSpec(trace=TraceSpec.drop(BASE_RATE, k=k,
                                               drop_at=DROP_AT,
                                               duration=duration),
                          duration=duration, seed=seed, wan_delay=0.025,
                          max_bps=max_bps, warmup=2.0, **overrides)
             for _, overrides, k in cells]
    rows = []
    for (scheme, _, k), result in zip(cells, run_specs(specs)):
        flow = result.flows[0]
        rows.append(DropRow(
            scheme=scheme, k=k,
            rtt_degradation_s=flow.rtt.degradation_duration(
                0.200, start=DROP_AT),
            frame_delay_degradation_s=flow.frames.delay_degradation_duration(
                0.400, start=DROP_AT),
            low_fps_duration_s=flow.frames.low_fps_duration(
                OBSERVE, start=DROP_AT),
            rate_reconvergence_s=_reconvergence(result, k)))
    return rows


def run_drop(scheme: str, overrides: dict, k: float, seed: int = 1,
             max_bps: float = VIDEO_CAP) -> DropRow:
    """One bandwidth-drop run; measures degradation durations."""
    return _drop_rows([(scheme, overrides, k)], seed, max_bps)[0]


def _reconvergence(result, k: float) -> float:
    """Fig. 4b metric: time for the sending rate to settle under the
    post-drop capacity (with 1.3x slack)."""
    # Rate above capacity shows as delay growth in the RTT series.
    # Re-convergence = last time network RTT exceeded 200 ms.
    rtt = result.flows[0].rtt
    violations = [t for t, r in zip(rtt.times, rtt.rtts)
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
    cells = []
    for k in ks:
        cells += [(f"{cca_name}+{queue_name}",
                   dict(protocol="tcp", cca=cca, queue_kind=queue,
                        app="bulk"), k)
                  for cca_name, cca in FIG4_CCAS
                  for queue_name, queue in FIG4_QUEUES]
        cells += [(f"Gcc+{queue_name}",
                   dict(protocol="rtp", ap_mode="none", queue_kind=queue), k)
                  for queue_name, queue in FIG4_QUEUES]
    return _drop_rows(cells, seed, max_bps=25e6)


def fig14_rtp_drop(ks=(2, 5, 10, 20, 50), seed: int = 1) -> list[DropRow]:
    """Fig. 14: RTP schemes under ABW drop."""
    return _drop_rows([(name, overrides, k)
                       for k in ks for name, overrides in RTP_SCHEMES],
                      seed, VIDEO_CAP)


def fig15_tcp_drop(ks=(2, 5, 10, 20, 50), seed: int = 1) -> list[DropRow]:
    """Fig. 15: TCP schemes under ABW drop."""
    return _drop_rows([(name, overrides, k)
                       for k in ks for name, overrides in TCP_SCHEMES],
                      seed, VIDEO_CAP)
