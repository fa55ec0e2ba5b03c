"""Parallel, cached, fault-tolerant execution of scenario campaigns.

:func:`run_campaign` fans a list of :class:`ScenarioSpec` cells out over
a :class:`concurrent.futures.ProcessPoolExecutor` (``jobs >= 2``) or an
in-process loop (``jobs <= 1``), with:

* **one per-cell deadline** — ``timeout`` is a ``SIGALRM`` interval
  timer armed in whichever process runs the cell: a pool worker runs
  its tasks on its main thread, and so must the caller of the serial
  path. Where the alarm cannot fire (``jobs <= 1`` off the main thread,
  or no ``SIGALRM`` on the platform) :func:`run_campaign` refuses the
  timeout up front instead of running cells unguarded. A hung cell
  (``hang@N`` chaos) is interrupted by the same alarm and retried;
* **bounded retry with exponential backoff** — every failure consumes
  one attempt; a cell becomes terminal after ``retries`` extra attempts;
* **crash isolation** — a worker that dies outright (``os._exit``,
  segfault, OOM kill) breaks the pool; the runner records a failed
  attempt for the cells that were in flight, rebuilds the pool, and
  resumes *one cell at a time* until a worker round-trip succeeds, so
  a repeat-crasher burns only its own retry budget instead of taking
  innocent in-flight cells down with it;
* **no orphans** — each pool worker exits on its own once the driver
  process that started it is gone, so a killed driver never leaves
  workers holding its pipes;
* **deterministic ordering** — results come back in input order no
  matter which cells finished first;
* **content-addressed caching** — cells whose spec hash is already in
  the :class:`ResultCache` are served without touching a worker. The
  cache is also how a killed campaign resumes: every finished cell is
  written durably (fsync, atomic rename, checksum), so re-running the
  same campaign on the same cache directory computes only the cells
  the crash lost.

The scenario simulation itself is a pure function of the spec, so a
summary computed in-process, in a subprocess or replayed from the
cache is bit-identical.

Persistence ordering per cell: the ``consume`` callback runs *first*;
only after it returns is the summary written to the cache. A consume
callback that raises therefore aborts the campaign with that cell
uncached — a re-run recomputes it and re-consumes, instead of serving
a cell whose consumption never actually happened. Failed cells are
never cached, so a re-run gives them a fresh retry budget.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.campaign.cache import resolve_cache
from repro.campaign.progress import (EVENT_CACHED, EVENT_FAILED, EVENT_OK,
                                     EVENT_RETRY, CampaignProgress)
from repro.campaign.spec import ScenarioSpec
from repro.campaign.summary import ScenarioSummary
from repro.topology.builder import TopologyBuilder

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_PENDING = "pending"


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


@contextmanager
def _deadline(timeout: Optional[float]):
    """Raise :class:`CellTimeout` here after ``timeout`` wall seconds.

    A ``SIGALRM`` interval timer: it interrupts blocking calls too, and
    it needs the main thread, which :func:`run_campaign` checks.
    """
    if timeout is None or timeout <= 0:
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_spec(spec: ScenarioSpec) -> ScenarioSummary:
    """Run one cell in this process and summarize it.

    This is the whole worker: build the spec, simulate, condense to the
    picklable summary. The full recorders never leave the worker.
    """
    try:
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
    and timeouts fail just this attempt.
    """
    try:
        with _deadline(timeout):
            summary = (worker or execute_spec)(spec)
    except CellTimeout as exc:
        return {"ok": False, "kind": "timeout", "error": str(exc)}
    except Exception as exc:
        return {"ok": False, "kind": "exception",
                "error": f"{type(exc).__name__}: {exc}",
                "flight_dump": getattr(exc, "flight_dump", None)}
    return {"ok": True, "summary": summary.as_dict()}


def _pool_cell(worker: Optional[Callable], spec_payload: dict,
               timeout: Optional[float]) -> dict:
    """Module-level pool entry point (must stay picklable)."""
    return _cell_payload(worker, ScenarioSpec.from_dict(spec_payload),
                         timeout)


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent is gone.

    Workers inherit the driver's pipes; a driver that dies without
    shutting its pool down would otherwise leave them blocked on the
    task queue forever, holding those pipes open. The parent is read
    here, not passed in: under the ``forkserver`` start method it is
    the fork server, and a worker that compared against the driver's
    pid would exit at once. (The fork server outlives a dead driver
    while its workers live, so there this guard never fires.)
    """
    parent_pid = os.getppid()

    def watch() -> None:
        if hasattr(signal, "SIGALRM"):
            # Leave the cell deadline's SIGALRM to the main thread.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True,
                     name="exit-with-parent").start()


def _new_pool(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=jobs,
                               initializer=_exit_with_parent)


def _refuse_unenforceable(timeout: Optional[float], jobs: int) -> None:
    """Raise ``ValueError`` when the cell deadline could not fire."""
    if timeout is None or timeout <= 0:
        return
    if not hasattr(signal, "SIGALRM"):
        raise ValueError("a per-cell timeout needs signal.SIGALRM, "
                         "which this platform lacks")
    if (jobs <= 1
            and threading.current_thread() is not threading.main_thread()):
        raise ValueError("a per-cell timeout with jobs <= 1 must be run "
                         "from the main thread: SIGALRM is delivered only "
                         "there")


# -- campaign driver -----------------------------------------------------------


def run_campaign(specs: Sequence[ScenarioSpec], *,
                 jobs: int = 0,
                 cache=None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff_s: float = 0.25,
                 progress: Optional[Callable] = None,
                 worker: Optional[Callable] = None,
                 consume: Optional[Callable] = None) -> CampaignResult:
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

    ``timeout`` is the one wall-clock deadline per cell attempt; a
    timeout that could not be enforced raises ``ValueError`` before any
    cell runs. A killed campaign resumes by running it again on the same
    cache: finished cells are served from it, the rest compute.
    """
    _refuse_unenforceable(timeout, jobs)
    specs = list(specs)
    store = resolve_cache(cache)
    stats = CampaignProgress(total=len(specs))
    cells = [CellResult(index=i, spec=spec) for i, spec in enumerate(specs)]
    started = time.monotonic()

    def emit(event: str, cell: CellResult) -> None:
        if progress is not None:
            progress(event, cell, stats)

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
        return False

    # Cache pass: served cells never reach a worker.
    todo: list[int] = []
    for cell in cells:
        hit = store.get(cell.spec) if store is not None else None
        if hit is not None:
            finish_ok(cell, hit, cached=True)
        else:
            todo.append(cell.index)

    if todo and jobs >= 2:
        _run_pool(cells, todo, jobs, timeout, backoff_s, worker,
                  store, stats, finish_ok, record_failure)
    elif todo:
        _run_serial(cells, todo, timeout, backoff_s, worker,
                    store, stats, finish_ok, record_failure)

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
                   finish_ok, record_failure) -> bool:
    """Fold one attempt's payload into the cell; True if requeued.

    Ordering is deliberate: consume (inside ``finish_ok``) runs before
    the cache write, so a raising consumer leaves no durable trace of
    the cell — a re-run recomputes it.
    """
    if payload["ok"]:
        summary = ScenarioSummary.from_dict(payload["summary"])
        finish_ok(cell, summary, cached=False)
        if store is not None:
            store.put(cell.spec, summary)
        return False
    dump = payload.get("flight_dump")
    if dump is not None:
        cell.flight_dump = dump
    return record_failure(cell, payload["error"])


def _run_serial(cells, todo, timeout, backoff_s, worker,
                store, stats, finish_ok, record_failure) -> None:
    queue = deque(todo)
    while queue:
        index = queue.popleft()
        cell = cells[index]
        attempt_start = time.monotonic()
        payload = _cell_payload(worker, cell.spec, timeout)
        cell.wall_s += time.monotonic() - attempt_start
        if _apply_payload(cell, payload, store, stats,
                          finish_ok, record_failure):
            time.sleep(backoff_s * (2 ** (cell.attempts - 1)))
            queue.append(index)


def _run_pool(cells, todo, jobs, timeout, backoff_s, worker,
              store, stats, finish_ok, record_failure) -> None:
    queue = deque(todo)
    not_before: dict[int, float] = {}
    launched_at: dict[int, float] = {}
    pool = _new_pool(jobs)
    inflight: dict = {}  # future -> cell index
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
                future = pool.submit(_pool_cell, worker,
                                     cells[index].spec.as_dict(), timeout)
                inflight[future] = index

            if not inflight:
                # Everything remaining is backing off; sleep until the
                # earliest cell becomes eligible again.
                wake = min(not_before.get(i, 0.0) for i in queue)
                time.sleep(max(wake - time.monotonic(), 0.0) + 1e-3)
                continue

            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED,
                           timeout=1.0)

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
                                  finish_ok, record_failure):
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
                pool = _new_pool(jobs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

