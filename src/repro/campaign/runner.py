"""Parallel, cached, fault-tolerant execution of scenario campaigns.

:func:`run_campaign` fans a list of :class:`ScenarioSpec` cells out over
a :class:`concurrent.futures.ProcessPoolExecutor` (``jobs >= 2``) or an
in-process loop (``jobs <= 1``), with:

* **per-cell timeouts** — enforced *inside* the worker: ``SIGALRM`` on
  a POSIX main thread, a watchdog-thread async exception anywhere else
  (see :mod:`repro.campaign.supervise`); which mechanism ran is
  reported per attempt as ``timeout_mode`` telemetry;
* **bounded retry with exponential backoff** — every failure consumes
  one attempt; a cell becomes terminal after ``retries`` extra attempts;
* **crash isolation** — a worker that dies outright (``os._exit``,
  segfault, OOM kill) breaks the pool; the runner records a failed
  attempt for the cells that were in flight, rebuilds the pool, and
  resumes *one cell at a time* until a worker round-trip succeeds, so
  a repeat-crasher burns only its own retry budget instead of taking
  innocent in-flight cells down with it;
* **hung-worker supervision** — with ``hang_timeout`` set, pool workers
  heartbeat their pid and in-flight cell index to a scratch directory;
  a cell still in flight past the deadline gets its worker SIGKILLed,
  which re-enters the crash-isolation path above (kill, rebuild,
  retry) instead of stalling the campaign forever;
* **deterministic ordering** — results come back in input order no
  matter which cells finished first;
* **content-addressed caching** — cells whose spec hash is already in
  the :class:`ResultCache` are served without touching a worker;
* **journaled checkpoint/resume** — with ``journal=`` set, every
  terminal cell is appended to a crash-safe JSONL journal (see
  :mod:`repro.campaign.journal`) and consumer state (e.g. the fleet
  accumulator) is checkpointed every ``checkpoint_every`` cells;
  ``resume=True`` restores completed cells from the journal instead of
  recomputing them, bit-identically to an uninterrupted run.

The scenario simulation itself is a pure function of the spec, so a
summary computed in-process, in a subprocess, replayed from the cache,
or restored from a journal is bit-identical.

Persistence ordering per cell: the ``consume`` callback runs *first*;
only after it returns is the summary written to the cache and the
journal. A consume callback that raises therefore aborts the campaign
with that cell unrecorded everywhere — a resume recomputes it and
re-consumes, instead of serving a cell whose consumption never
actually happened.
"""

from __future__ import annotations

import gc
import tempfile
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.campaign.cache import resolve_cache
from repro.campaign.journal import CampaignJournal
from repro.campaign.progress import (EVENT_CACHED, EVENT_FAILED, EVENT_OK,
                                     EVENT_RESUMED, EVENT_RETRY,
                                     CampaignProgress)
from repro.campaign.spec import ScenarioSpec
from repro.campaign.summary import ScenarioSummary
from repro.campaign.supervise import (TIMEOUT_NONE, TIMEOUT_OFF,
                                      WorkerHeartbeat, cell_deadline,
                                      kill_worker, read_heartbeats,
                                      timeout_mode)
from repro.obs.events import WARN
from repro.obs.harness import harness_event
from repro.topology.builder import TopologyBuilder

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_PENDING = "pending"

#: Default cells-between-checkpoints when journaling with a
#: ``checkpoint_state`` provider.
CHECKPOINT_EVERY = 8


class CampaignError(RuntimeError):
    """Raised by :func:`run_specs` when any cell failed terminally."""


class CellTimeout(Exception):
    """A cell exceeded its wall-clock budget."""


@dataclass
class CellResult:
    """Terminal state of one campaign cell."""

    index: int
    spec: ScenarioSpec
    status: str = STATUS_PENDING
    summary: Optional[ScenarioSummary] = None
    error: Optional[str] = None
    attempts: int = 0
    cached: bool = False
    #: True when this cell was restored from a resume journal instead
    #: of being computed (or cache-served) in this run.
    resumed: bool = False
    wall_s: float = 0.0
    #: Flight-recorder tail from the last failed attempt, when the cell
    #: was traced (see :meth:`repro.obs.session.TraceSession.dump_on_error`).
    flight_dump: Optional[str] = None


@dataclass
class CampaignResult:
    """All cells of one campaign, in input order."""

    cells: list[CellResult]
    progress: CampaignProgress
    wall_s: float = 0.0

    @property
    def ok(self) -> int:
        return sum(1 for c in self.cells if c.status == STATUS_OK)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if c.status == STATUS_FAILED)

    @property
    def cached(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def resumed(self) -> int:
        return sum(1 for c in self.cells if c.resumed)

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == STATUS_FAILED]

    def summaries(self) -> list[ScenarioSummary]:
        """Summaries in input order; raises if any cell failed."""
        bad = self.failures()
        if bad:
            detail = "; ".join(f"cell {c.index} [{c.spec.label()}]: {c.error}"
                               for c in bad[:5])
            raise CampaignError(
                f"{len(bad)} of {len(self.cells)} cells failed: {detail}")
        return [c.summary for c in self.cells]


# -- worker side ---------------------------------------------------------------


_UNENFORCED_WARNED = False


def execute_spec(spec: ScenarioSpec,
                 timeout: Optional[float] = None) -> ScenarioSummary:
    """Run one cell in this process and summarize it.

    This is the whole worker: build the spec, simulate, condense to the
    picklable summary. The full recorders never leave the worker.
    """
    try:
        with cell_deadline(timeout, CellTimeout):
            return TopologyBuilder(spec).run()
    finally:
        # A finished cell's graph is all reference cycles: free it now,
        # so peak memory is one cell's and not a matter of GC timing.
        gc.collect()


def _cell_payload(worker: Optional[Callable], spec: ScenarioSpec,
                  timeout: Optional[float]) -> dict:
    """Run one attempt, converting Python-level errors into a payload.

    Only hard process death (or ``BaseException`` escapees like
    ``SystemExit``) can reach the pool machinery; ordinary exceptions
    and timeouts fail just this attempt. The payload reports which
    timeout mechanism guarded the attempt (``timeout_mode``).
    """
    global _UNENFORCED_WARNED
    mode = timeout_mode(timeout)
    if mode == TIMEOUT_NONE and not _UNENFORCED_WARNED:
        _UNENFORCED_WARNED = True
        warnings.warn(
            "per-cell timeout requested but no enforcement mechanism is "
            "available on this platform/thread; cells run without a "
            "wall-clock limit", RuntimeWarning, stacklevel=3)
    enforced = mode != TIMEOUT_NONE
    try:
        with cell_deadline(timeout, CellTimeout, mode=mode):
            if worker is not None:
                summary = worker(spec)
            else:
                summary = execute_spec(spec)
    except CellTimeout as exc:
        detail = str(exc) or f"cell exceeded {timeout:g}s timeout"
        return {"ok": False, "kind": "timeout", "error": detail,
                "timeout_enforced": enforced, "timeout_mode": mode}
    except Exception as exc:
        return {"ok": False, "kind": "exception",
                "error": f"{type(exc).__name__}: {exc}",
                "flight_dump": getattr(exc, "flight_dump", None),
                "timeout_enforced": enforced, "timeout_mode": mode}
    return {"ok": True, "summary": summary.as_dict(),
            "timeout_enforced": enforced, "timeout_mode": mode}


def _pool_cell(worker: Optional[Callable], spec_payload: dict,
               timeout: Optional[float],
               heartbeat: Optional[tuple] = None) -> dict:
    """Module-level pool entry point (must stay picklable).

    ``heartbeat`` is ``(directory, cell_index)`` when the parent runs
    hung-worker supervision: the worker stamps its pid/cell mapping
    for the whole attempt so the parent can kill it by deadline.
    """
    spec = ScenarioSpec.from_dict(spec_payload)
    if heartbeat is None:
        return _cell_payload(worker, spec, timeout)
    hb_dir, index = heartbeat
    with WorkerHeartbeat(hb_dir, index):
        return _cell_payload(worker, spec, timeout)


# -- campaign driver -----------------------------------------------------------


def run_campaign(specs: Sequence[ScenarioSpec], *,
                 jobs: int = 0,
                 cache=None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff_s: float = 0.25,
                 progress: Optional[Callable] = None,
                 worker: Optional[Callable] = None,
                 consume: Optional[Callable] = None,
                 journal=None,
                 resume: bool = False,
                 checkpoint_state: Optional[Callable] = None,
                 checkpoint_every: int = CHECKPOINT_EVERY,
                 hang_timeout: Optional[float] = None) -> CampaignResult:
    """Execute ``specs`` and return per-cell results in input order.

    ``jobs <= 1`` runs cells in this process (still cache-aware);
    ``jobs >= 2`` uses a process pool of that many workers. ``cache``
    accepts ``None``/``True``/a directory/a :class:`ResultCache`.
    ``worker`` overrides the cell body (``worker(spec) -> summary``) —
    used by tests to inject failures; it must be picklable for pools.

    ``consume`` turns the campaign into a stream: it is called once per
    successful cell (``consume(cell)``, completion order, cache hits
    included) while ``cell.summary`` is populated, after which the
    summary is *released* — the returned :class:`CampaignResult` keeps
    status/error/telemetry per cell but ``summary=None``. This bounds
    peak memory to one in-flight summary plus whatever the consumer
    retains, which is what lets a 1000-AP sharded city campaign stream
    per-shard summaries into an incremental fleet merge instead of
    holding every per-flow sample series at once.

    ``journal`` (a path or :class:`CampaignJournal`) makes progress
    durable: every terminal cell is appended, fsync'd, to a JSONL
    journal, and — when ``checkpoint_state`` is provided — its dict
    snapshot is checkpointed every ``checkpoint_every`` completions.
    ``resume=True`` replays journaled cells (status, summary, consume
    callback) before computing anything; previously *failed* cells get
    a fresh retry budget. ``hang_timeout`` (pool mode) SIGKILLs any
    worker whose cell exceeds that wall-clock deadline and retries it.
    """
    specs = list(specs)
    store = resolve_cache(cache)
    stats = CampaignProgress(total=len(specs))
    cells = [CellResult(index=i, spec=spec) for i, spec in enumerate(specs)]
    started = time.monotonic()

    if resume and journal is None:
        raise ValueError("resume=True requires journal=")
    journal_obj: Optional[CampaignJournal] = None
    journaled_state = None
    if journal is not None:
        journal_obj = (journal if isinstance(journal, CampaignJournal)
                       else CampaignJournal(journal))
        keys = [spec.content_hash() for spec in specs]
        journaled_state = journal_obj.open(keys, resume=resume)

    # Mutable checkpoint cadence counter shared by the closures below.
    ckpt = {"since": 0}

    def emit(event: str, cell: CellResult) -> None:
        if progress is not None:
            progress(event, cell, stats)

    def maybe_checkpoint(force: bool = False) -> None:
        if journal_obj is None or checkpoint_state is None:
            return
        if not force and ckpt["since"] < max(1, checkpoint_every):
            return
        if ckpt["since"] == 0:
            return
        journal_obj.checkpoint(checkpoint_state(), after=stats.done)
        ckpt["since"] = 0

    def persist_ok(cell: CellResult, summary_dict: Optional[dict]) -> None:
        """Journal one successful cell (after consume + cache put).

        With a result cache active the summary is already durable in
        the cache entry (written just before this call), so the record
        carries only the outcome — journaling the sample series twice
        would double the per-cell serialization cost for nothing.
        Resume then restores the summary through the cache, falling
        back to recompute if the entry was pruned meanwhile.
        """
        if journal_obj is None:
            return
        journal_obj.record_cell(index=cell.index,
                                key=cell.spec.content_hash(),
                                status=STATUS_OK, cached=cell.cached,
                                attempts=cell.attempts,
                                summary=None if store is not None
                                else summary_dict)
        ckpt["since"] += 1
        maybe_checkpoint()

    def finish_ok(cell: CellResult, summary: ScenarioSummary,
                  cached: bool) -> None:
        cell.status = STATUS_OK
        cell.summary = summary
        cell.cached = cached
        stats.done += 1
        if cached:
            stats.cached += 1
        else:
            stats.ok += 1
        emit(EVENT_CACHED if cached else EVENT_OK, cell)
        if consume is not None:
            consume(cell)
            cell.summary = None  # release the sample series

    def finish_resumed(cell: CellResult, summary: ScenarioSummary,
                       record: dict) -> None:
        """Restore one journaled cell without recomputing anything."""
        cell.status = STATUS_OK
        cell.summary = summary
        cell.cached = bool(record.get("cached"))
        cell.resumed = True
        cell.attempts = int(record.get("attempts", 0))
        stats.done += 1
        stats.resumed += 1
        emit(EVENT_RESUMED, cell)
        if consume is not None:
            consume(cell)
            cell.summary = None

    def record_failure(cell: CellResult, error: str) -> bool:
        """Consume one attempt; True if the cell may still be retried."""
        cell.attempts += 1
        cell.error = error
        if cell.attempts <= retries:
            stats.retries += 1
            emit(EVENT_RETRY, cell)
            return True
        cell.status = STATUS_FAILED
        stats.done += 1
        stats.failed += 1
        emit(EVENT_FAILED, cell)
        if journal_obj is not None:
            journal_obj.record_cell(index=cell.index,
                                    key=cell.spec.content_hash(),
                                    status=STATUS_FAILED,
                                    attempts=cell.attempts, error=error)
        return False

    try:
        # Resume pass: journaled cells are restored without touching a
        # worker or even the cache. Previously failed cells fall
        # through with a fresh retry budget.
        if resume and journaled_state is not None:
            for index, record in sorted(
                    journaled_state.completed().items()):
                if not 0 <= index < len(cells):
                    continue
                cell = cells[index]
                summary_payload = record.get("summary")
                if summary_payload is not None:
                    summary = ScenarioSummary.from_dict(summary_payload)
                elif store is not None:
                    summary = store.get(cell.spec)
                else:
                    summary = None
                if summary is None:
                    continue  # recompute: journal predates summaries
                finish_resumed(cell, summary, record)
            if stats.resumed:
                harness_event("journal", action="resume",
                              path=str(journal_obj.path),
                              cells=stats.resumed)
                # Compact future resumes: the consumer state now covers
                # every refolded cell.
                ckpt["since"] += stats.resumed
                maybe_checkpoint(force=True)

        # Cache pass: served cells never reach a worker.
        todo: list[int] = []
        for cell in cells:
            if cell.status != STATUS_PENDING:
                continue
            hit = store.get(cell.spec) if store is not None else None
            if hit is not None:
                finish_ok(cell, hit, cached=True)
                persist_ok(cell, None)
            else:
                todo.append(cell.index)

        if todo and jobs >= 2:
            _run_pool(cells, todo, jobs, timeout, backoff_s, worker,
                      store, stats, finish_ok, record_failure, persist_ok,
                      hang_timeout)
        elif todo:
            _run_serial(cells, todo, timeout, backoff_s, worker,
                        store, stats, finish_ok, record_failure, persist_ok)
        maybe_checkpoint(force=False)
    finally:
        if journal_obj is not None:
            journal_obj.close()

    return CampaignResult(cells=cells, progress=stats,
                          wall_s=time.monotonic() - started)


def run_specs(specs: Sequence[ScenarioSpec], *,
              jobs: int = 0, **kwargs) -> list[ScenarioSummary]:
    """Library entry point: summaries in input order, or raise.

    Any terminally failed cell raises :class:`CampaignError`; partial
    results are available via :func:`run_campaign` instead.
    """
    return run_campaign(specs, jobs=jobs, **kwargs).summaries()


def _apply_payload(cell: CellResult, payload: dict, store, stats,
                   finish_ok, record_failure, persist_ok) -> bool:
    """Fold one attempt's payload into the cell; True if requeued.

    Ordering is deliberate: consume (inside ``finish_ok``) runs before
    the cache write and the journal append, so a raising consumer
    leaves no durable trace of the cell — resume recomputes it.
    """
    stats.note_timeout(payload.get("timeout_mode"),
                       payload.get("timeout_enforced", True))
    if payload["ok"]:
        summary_dict = payload["summary"]
        summary = ScenarioSummary.from_dict(summary_dict)
        finish_ok(cell, summary, cached=False)
        if store is not None:
            store.put(cell.spec, summary)
        persist_ok(cell, summary_dict)
        return False
    dump = payload.get("flight_dump")
    if dump is not None:
        cell.flight_dump = dump
    return record_failure(cell, payload["error"])


def _run_serial(cells, todo, timeout, backoff_s, worker,
                store, stats, finish_ok, record_failure, persist_ok) -> None:
    queue = deque(todo)
    while queue:
        index = queue.popleft()
        cell = cells[index]
        attempt_start = time.monotonic()
        payload = _cell_payload(worker, cell.spec, timeout)
        cell.wall_s += time.monotonic() - attempt_start
        if _apply_payload(cell, payload, store, stats,
                          finish_ok, record_failure, persist_ok):
            time.sleep(backoff_s * (2 ** (cell.attempts - 1)))
            queue.append(index)


def _run_pool(cells, todo, jobs, timeout, backoff_s, worker,
              store, stats, finish_ok, record_failure, persist_ok,
              hang_timeout: Optional[float] = None) -> None:
    queue = deque(todo)
    not_before: dict[int, float] = {}
    launched_at: dict[int, float] = {}
    pool = ProcessPoolExecutor(max_workers=jobs)
    inflight: dict = {}  # future -> cell index
    hb_dir: Optional[str] = None
    killed_pids: set[int] = set()
    if hang_timeout is not None and hang_timeout > 0:
        hb_dir = tempfile.mkdtemp(prefix="repro-hb-")
    # After a pool breakage we cannot tell which cell killed its
    # worker, so retries resume single-file: if the crasher strikes
    # again it is alone in flight and only burns its own budget. The
    # first clean worker round-trip restores full parallelism.
    cautious = False
    try:
        while queue or inflight:
            now = time.monotonic()
            # Submit every eligible cell up to the worker count.
            limit = 1 if cautious else jobs
            for _ in range(len(queue)):
                if len(inflight) >= limit:
                    break
                index = queue.popleft()
                if not_before.get(index, 0.0) > now:
                    queue.append(index)  # still backing off
                    continue
                launched_at[index] = now
                heartbeat = (hb_dir, index) if hb_dir is not None else None
                future = pool.submit(_pool_cell, worker,
                                     cells[index].spec.as_dict(), timeout,
                                     heartbeat)
                inflight[future] = index

            if not inflight:
                # Everything remaining is backing off; sleep until the
                # earliest cell becomes eligible again.
                wake = min(not_before.get(i, 0.0) for i in queue)
                time.sleep(max(wake - time.monotonic(), 0.0) + 1e-3)
                continue

            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED,
                           timeout=1.0)

            if hb_dir is not None and not done:
                _kill_hung_workers(inflight, launched_at, hang_timeout,
                                   hb_dir, killed_pids, stats)

            broken = False
            for future in done:
                index = inflight.pop(future)
                cell = cells[index]
                cell.wall_s += time.monotonic() - launched_at[index]
                try:
                    payload = future.result()
                    cautious = False  # a worker came back alive
                except BrokenProcessPool:
                    broken = True
                    payload = {"ok": False, "kind": "crash",
                               "error": "worker process died"}
                except Exception as exc:  # pool-level (pickling, ...)
                    payload = {"ok": False, "kind": "executor",
                               "error": f"{type(exc).__name__}: {exc}"}
                if _apply_payload(cell, payload, store, stats,
                                  finish_ok, record_failure, persist_ok):
                    not_before[index] = (time.monotonic()
                                         + backoff_s
                                         * (2 ** (cell.attempts - 1)))
                    queue.append(index)

            if broken:
                # The pool is unusable after a hard crash. Cells still
                # in flight get a failed attempt (we cannot know which
                # worker died), then a fresh pool takes over in
                # single-file mode.
                cautious = True
                for future, index in list(inflight.items()):
                    cell = cells[index]
                    cell.wall_s += time.monotonic() - launched_at[index]
                    if record_failure(cell, "worker process died "
                                            "(pool reset)"):
                        not_before[index] = (time.monotonic()
                                             + backoff_s
                                             * (2 ** (cell.attempts - 1)))
                        queue.append(index)
                inflight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=jobs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        if hb_dir is not None:
            import shutil
            shutil.rmtree(hb_dir, ignore_errors=True)


def _kill_hung_workers(inflight: dict, launched_at: dict,
                       hang_timeout: float, hb_dir: str,
                       killed_pids: set, stats) -> None:
    """Deadline check: SIGKILL workers whose cell overran ``hang_timeout``.

    The kill surfaces as a :class:`BrokenProcessPool` on the next wait,
    which re-enters the cautious-restart path — the hung cell gets a
    failed attempt and a retry, exactly like any other worker death.
    """
    now = time.monotonic()
    overdue = [index for _future, index in inflight.items()
               if now - launched_at[index] > hang_timeout]
    if not overdue:
        return
    owners = read_heartbeats(hb_dir)
    for index in overdue:
        owner = owners.get(index)
        if owner is None:
            continue  # worker died before stamping; pool machinery owns it
        pid, _stamp = owner
        if pid in killed_pids:
            continue
        if kill_worker(pid):
            killed_pids.add(pid)
            stats.hung_kills += 1
            harness_event("hung_worker", severity=WARN, index=index,
                          pid=pid,
                          waited_s=round(now - launched_at[index], 3))
