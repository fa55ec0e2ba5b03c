"""Fortune-Teller prediction auditor: a reducer over joined pairs.

The join itself — each packet's ``totalDelay`` forecast at AP arrival
against its wireless delivery — is the AP's
:class:`~repro.core.prediction_join.PredictionJoin`.
:meth:`PredictionAuditor.from_pairs` takes its ``(predicted, actual)``
pairs, where ``actual`` is the measured AP-to-client delay, and
:meth:`~PredictionAuditor.report` reduces them to an
:class:`AuditReport`: the per-packet absolute-error CDF, quantiles
(p50/p90/p95/p99), and the predicted-vs-real heatmap of the paper's
Fig. 19 accuracy study.

A traced run with ``audit`` on hands its session the pairs of every
Zhuge AP at the end of the run, whichever event categories it traced;
:mod:`repro.experiments.drivers.accuracy` reduces a run's recorded
pairs the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.metrics.stats import cdf_points, quantiles

#: Log-spaced delay bin edges (seconds) of the Fig. 19 heatmap.
BINS = (0.001, 0.004, 0.016, 0.064, 0.256, 10.0)


def bin_index(value: float, bins=BINS) -> int:
    """Index of the first bin edge >= ``value`` (last bin catches all)."""
    for index, edge in enumerate(bins):
        if value <= edge:
            return index
    return len(bins) - 1


@dataclass
class AuditReport:
    """Prediction-error summary over all joined packets."""

    pairs: int
    p50: float
    p90: float
    p95: float
    p99: float
    mean_abs_error: float
    error_cdf: list[tuple[float, float]] = field(default_factory=list)
    heatmap: dict[tuple[int, int], int] = field(default_factory=dict)

    def quantiles_ms(self) -> dict[str, float]:
        """p50/p95/p99 in milliseconds (NaN-safe), for reports and CLI."""
        return {name: value * 1000
                for name, value in (("p50", self.p50), ("p95", self.p95),
                                    ("p99", self.p99))}

    def format_lines(self) -> list[str]:
        if not self.pairs:
            return ["prediction auditor: no (predicted, actual) pairs joined"]
        q = self.quantiles_ms()
        return [f"prediction auditor: {self.pairs} packets audited",
                f"  abs error p50 / p95 / p99: {q['p50']:.2f} / "
                f"{q['p95']:.2f} / {q['p99']:.2f} ms",
                f"  mean abs error:            "
                f"{self.mean_abs_error * 1000:.2f} ms"]


@dataclass
class PredictionAuditor:
    """Holds (predicted, actual) delay pairs and summarizes them."""

    pairs: list[tuple[float, float]] = field(default_factory=list)

    @classmethod
    def from_pairs(cls, pairs) -> "PredictionAuditor":
        return cls([(float(p), float(a)) for p, a in pairs])

    def report(self, cdf_resolution: int = 30) -> AuditReport:
        """Summarize all joined pairs (NaN quantiles when empty)."""
        errors = [abs(p - a) for p, a in self.pairs]
        heatmap: dict[tuple[int, int], int] = {}
        for predicted, actual in self.pairs:
            key = (bin_index(predicted), bin_index(actual))
            heatmap[key] = heatmap.get(key, 0) + 1
        if errors:
            p50, p90, p95, p99 = quantiles(errors, (50, 90, 95, 99))
            mean = sum(errors) / len(errors)
        else:
            p50 = p90 = p95 = p99 = mean = math.nan
        return AuditReport(pairs=len(self.pairs),
                           p50=p50, p90=p90, p95=p95, p99=p99,
                           mean_abs_error=mean,
                           error_cdf=cdf_points(errors, points=cdf_resolution),
                           heatmap=heatmap)
