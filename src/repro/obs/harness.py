"""Process-level harness observability (the ``harness`` trace category).

Simulation events flow through a per-run :class:`~repro.obs.bus.TraceBus`
in virtual time; the campaign runner, the result cache, and the worker
supervisor live *outside* any simulation, so their events get their own
tiny, global channel. A ``WARN``-or-worse harness event prints exactly
one line to stderr (a quarantined cache entry, a killed hung worker, a
degradation) — campaigns never go silent about the messy
cases, and never crash because of them either.
"""

from __future__ import annotations

import sys
import time

from repro.obs.events import INFO, WARN, TraceEvent


def harness_event(name: str, *, severity: int = INFO, track: str = "harness",
                  **args) -> TraceEvent:
    """Emit one harness event; WARN+ also prints a single stderr line."""
    event = TraceEvent(time=time.time(), category="harness", name=name,
                       track=track, severity=severity, args=args)
    if severity >= WARN:
        payload = " ".join(f"{key}={value}"
                           for key, value in args.items())
        print(f"harness: {name} {payload}".rstrip(),
              file=sys.stderr, flush=True)
    return event
