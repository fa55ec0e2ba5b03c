"""Trace configuration and per-run trace sessions.

:class:`TraceConfig` is the pure-data description of what to trace —
safe to embed in a :class:`~repro.campaign.spec.ScenarioSpec` (it is
JSON-serializable and participates in the spec content hash, so a
traced cell never aliases an untraced one in the result cache).

:class:`TraceSession` is the runtime side: it owns the
:class:`~repro.obs.bus.TraceBus`, the flight recorder, the optional
in-memory event collection, and the prediction auditor (over the pairs
the run hands it), and knows how to export the collected events and to
dump the flight-recorder tail into a dying exception.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from repro.obs.audit import PredictionAuditor
from repro.obs.bus import TraceBus
from repro.obs.events import CATEGORIES, SIM_CATEGORIES, TraceEvent
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.flight import FlightRecorder

FORMATS = ("chrome", "jsonl")


@dataclass(frozen=True)
class TraceConfig:
    """What to trace and where the artifact goes.

    ``events`` selects probe categories (see
    :data:`repro.obs.events.CATEGORIES`). ``audit`` reduces every Zhuge
    AP's joined prediction pairs, whichever categories are traced.
    """

    events: tuple[str, ...] = ("queue", "link", "ap", "cca")
    ring_size: int = 4096       # flight-recorder depth
    collect: bool = True        # keep the full event list in memory
    audit: bool = True          # reduce the joined prediction pairs
    out: Optional[str] = None   # write the trace artifact here after a run
    fmt: str = "chrome"         # "chrome" | "jsonl"
    #: Artifact label for multi-cell runs (e.g. ``shard003`` in a
    #: sharded city campaign): becomes the Chrome-trace process name
    #: suffix / a ``tag`` field on every JSONL record, and is appended
    #: to ``out`` (before the extension) so per-shard artifacts never
    #: overwrite each other.
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events",
                           tuple(str(e) for e in self.events))
        unknown = [e for e in self.events if e not in CATEGORIES]
        if unknown:
            raise ValueError(f"unknown trace categories {unknown}; "
                             f"expected a subset of {CATEGORIES}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown trace format {self.fmt!r}; "
                             f"expected one of {FORMATS}")
        if self.ring_size <= 0:
            raise ValueError(f"ring_size must be positive: {self.ring_size}")

    @classmethod
    def parse_events(cls, text: str) -> tuple[str, ...]:
        """Parse a ``--events queue,ap,cca`` style CSV list."""
        items = tuple(part.strip() for part in text.split(",")
                      if part.strip())
        return items or tuple(SIM_CATEGORIES)

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["events"] = list(self.events)
        # Omitted when None so untagged configs (every pre-city spec)
        # keep their historical content hashes and cache entries.
        if payload["tag"] is None:
            del payload["tag"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceConfig":
        payload = dict(payload)
        payload["events"] = tuple(payload.get("events", SIM_CATEGORIES))
        return cls(**payload)


class TraceSession:
    """Live tracing state for one simulation run."""

    def __init__(self, sim, config: TraceConfig):
        self.config = config
        self.bus = TraceBus(sim, categories=frozenset(config.events))
        self.flight = FlightRecorder(capacity=config.ring_size)
        self.bus.subscribe(self.flight)
        self.events: list[TraceEvent] = []
        if config.collect:
            self.bus.subscribe(self.events.append)
        #: Set by :meth:`audit` at the end of an audited run.
        self.auditor: Optional[PredictionAuditor] = None

    def audit(self, pairs) -> None:
        """Reduce the run's joined ``(predicted, actual)`` pairs."""
        if self.config.audit:
            self.auditor = PredictionAuditor.from_pairs(pairs)

    # -- artifacts -----------------------------------------------------------

    def export(self, out: Optional[str] = None,
               fmt: Optional[str] = None) -> Optional[Path]:
        """Write the collected events; returns the path (None if no out)."""
        out = out if out is not None else self.config.out
        if not out:
            return None
        fmt = fmt or self.config.fmt
        tag = self.config.tag
        if tag:
            path = Path(out)
            out = str(path.with_name(
                f"{path.stem}-{tag}{path.suffix or ''}"))
        if fmt == "jsonl":
            return write_jsonl(self.events, out, tag=tag)
        process = f"repro-sim:{tag}" if tag else "repro-sim"
        return write_chrome_trace(self.events, out, process_name=process)

    # -- failure handling ----------------------------------------------------

    def dump_on_error(self, exc: BaseException,
                      stream=None, last: int = 50) -> str:
        """Attach the flight-recorder tail to ``exc`` (and print it).

        The dump lands on ``exc.flight_dump`` so upstream handlers (the
        campaign runner's failure payloads, the CLI) can surface the
        last events before the crash without re-running anything.
        """
        text = "\n".join(self.flight.dump_lines(last=last))
        try:
            exc.flight_dump = text
        except AttributeError:  # exceptions with __slots__
            pass
        print(f"--- trace dump after {type(exc).__name__}: {exc} ---\n"
              f"{text}", file=stream or sys.stderr)
        return text
