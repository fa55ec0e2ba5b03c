"""Structured campaign progress telemetry.

Mirrors the ``repro.metrics.hotpath`` style: plain-dataclass counters
with an ``as_dict`` view, cheap enough to update on every cell event.
The runner owns one :class:`CampaignProgress` and invokes the caller's
callback as ``callback(event, cell, progress)`` after every cell
completion, cache hit, retry, or terminal failure; :class:`ProgressPrinter`
is the stock callback the CLI uses.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field

#: Event names passed to progress callbacks.
EVENT_OK = "ok"
EVENT_CACHED = "cached"
EVENT_FAILED = "failed"
EVENT_RETRY = "retry"


@dataclass
class CampaignProgress:
    """Counters for one campaign run."""

    total: int = 0
    done: int = 0          # terminal cells (ok + cached + failed)
    ok: int = 0            # computed successfully this run
    cached: int = 0        # served from the result cache
    failed: int = 0        # exhausted their retry budget
    retries: int = 0       # attempts beyond each cell's first
    started_at: float = field(default_factory=time.monotonic)

    def elapsed_s(self) -> float:
        return max(time.monotonic() - self.started_at, 1e-9)

    def cells_per_sec(self) -> float:
        return self.done / self.elapsed_s()

    def eta_s(self) -> float:
        """Naive remaining-time estimate from the realized cell rate."""
        remaining = self.total - self.done
        rate = self.cells_per_sec()
        if remaining <= 0 or rate <= 0:
            return 0.0
        return remaining / rate

    def as_dict(self) -> dict:
        payload = asdict(self)
        del payload["started_at"]
        payload["elapsed_s"] = self.elapsed_s()
        payload["cells_per_sec"] = self.cells_per_sec()
        payload["eta_s"] = self.eta_s()
        return payload

    def line(self) -> str:
        """One-line telemetry summary for log output."""
        return (f"[{self.done}/{self.total}] "
                f"ok={self.ok} cached={self.cached} failed={self.failed} "
                f"retries={self.retries} "
                f"{self.cells_per_sec():.2f} cells/s "
                f"eta {self.eta_s():.0f}s")


class ProgressPrinter:
    """Stock progress callback: one line per cell event."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: str, cell, progress: CampaignProgress) -> None:
        detail = cell.spec.label()
        if event == EVENT_FAILED and cell.error:
            detail += f" ({cell.error})"
        elif event == EVENT_RETRY and cell.error:
            detail += f" (attempt {cell.attempts} failed: {cell.error})"
        print(f"{progress.line()} {event}: {detail}",
              file=self.stream, flush=True)
