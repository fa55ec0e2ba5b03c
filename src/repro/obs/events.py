"""Event type and taxonomy for the tracing subsystem.

Severities are plain ints ordered like the stdlib logging levels so
subscribers can threshold with a comparison.

Event taxonomy (category / name — args):

======== ============ ==================================================
category name         args
======== ============ ==================================================
queue    enqueue      pkt_id, size, depth_pkts, depth_bytes
queue    dequeue      pkt_id, size, depth_pkts, depth_bytes
queue    drop         pkt_id, size, reason, depth_pkts, depth_bytes
link     rate         value (bps; emitted when the serving rate changes)
link     txop         pkts, bytes, airtime_s, rate_bps  (one AMPDU burst)
link     deliver      pkt_id, size
ap       predict      pkt_id, q_long, q_short, tx, total
ap       delta        value, banked (True when a negative delta became
                      a token)
ap       tokens       value (outstanding token-bank seconds)
ap       ack_delay    sampled, injected, tokens
ap       feedback     reports, base_seq (in-band TWCC construction)
cca      cwnd         value (bytes)
cca      rate         value (target bps)
sim      error        message
fault    window       kind, index, duration_s, target[, magnitude]
                      (one slice per windowed fault)
fault    phase        kind, index, phase ("begin" / "end")
fault    loss         pkt_id, direction (one per burst-loss drop)
fault    watchdog     state, reason (AP health transitions)
control  state        state, reason (controller state transitions)
control  policy       state, window_s, passthrough (policy application)
control  steer        client, old_ap, new_ap, phase ("begin"/"complete")
harness  quarantine   entry, reason (corrupt cache entry set aside)
======== ============ ==================================================

``harness`` events are emitted by the campaign/cache layer *outside*
any simulation, so their ``time`` is wall-clock (epoch seconds), not
virtual time; they flow through :mod:`repro.obs.harness`, not a
per-run :class:`~repro.obs.bus.TraceBus`.

Tracks (the ``track`` field) name the emitting entity — a queue, a
link, a flow — and become one timeline row each in the Chrome-trace
export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEBUG = 10
INFO = 20
WARN = 30
ERROR = 40

_SEVERITY_NAMES = {DEBUG: "DEBUG", INFO: "INFO", WARN: "WARN", ERROR: "ERROR"}

#: Categories emitted by in-simulation probes (virtual time, per-run
#: TraceBus); ``TraceConfig.parse_events`` defaults to these.
SIM_CATEGORIES = ("sim", "queue", "link", "ap", "cca", "fault", "control")
#: Every category, including the process-level ``harness`` channel;
#: TraceConfig validates against this.
CATEGORIES = SIM_CATEGORIES + ("harness",)


def severity_name(severity: int) -> str:
    """Human-readable label for a severity int (unknown values pass through)."""
    return _SEVERITY_NAMES.get(severity, str(severity))


@dataclass(slots=True)
class TraceEvent:
    """One structured simulation event.

    ``time`` is virtual simulation time in seconds; ``args`` is the
    typed payload documented in the module taxonomy table.
    """

    time: float
    category: str
    name: str
    track: str
    severity: int = INFO
    args: dict = field(default_factory=dict)

    def format_line(self) -> str:
        """One-line rendering used by flight-recorder dumps."""
        payload = " ".join(f"{k}={_fmt(v)}" for k, v in self.args.items())
        return (f"[{self.time * 1000:10.3f}ms {severity_name(self.severity):5s}] "
                f"{self.category}.{self.name} ({self.track}) {payload}".rstrip())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
