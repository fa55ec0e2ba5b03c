"""repro.obs — structured event tracing and prediction auditing.

The observability subsystem has one path from probe to artifact:

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — a typed,
  zero-cost-when-disabled event bus. Components hold a ``trace``
  attribute that is ``None`` by default; every probe site is guarded by
  an ``is not None`` check so the disabled path costs one attribute
  load (guarded by ``benchmarks/bench_obs_overhead.py``, which times
  the live datapath against the same classes with their probe sites
  cut out of their own source). The bus keeps every event that passes
  its category filter in one list.
* :mod:`repro.obs.session` — :class:`~repro.obs.session.TraceConfig`
  (what to trace, where the artifact goes) and the per-run
  :class:`~repro.obs.session.TraceSession`, which dumps the tail of the
  event list whenever a scenario dies, so campaign failures come with
  the last events before the crash.
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` exporters
  (open the latter in Perfetto / ``chrome://tracing``; one track per
  node/queue/flow).
* :mod:`repro.obs.audit` — the Fortune-Teller prediction auditor:
  reduces the AP's joined ``(predicted, actual)`` delay pairs to error
  CDFs and quantiles (the backbone of the Fig. 19 accuracy driver).
"""

from repro.obs.audit import AuditReport, PredictionAuditor
from repro.obs.bus import TraceBus
from repro.obs.events import (CATEGORIES, DEBUG, ERROR, INFO, WARN,
                              TraceEvent, severity_name)
from repro.obs.export import (chrome_trace, events_to_jsonl,
                              write_chrome_trace, write_jsonl)
from repro.obs.session import TraceConfig, TraceSession

__all__ = [
    "AuditReport", "PredictionAuditor", "TraceBus", "TraceEvent",
    "CATEGORIES", "DEBUG", "INFO", "WARN", "ERROR", "severity_name",
    "chrome_trace", "events_to_jsonl", "write_chrome_trace", "write_jsonl",
    "TraceConfig", "TraceSession",
]
