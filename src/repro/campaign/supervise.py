"""Worker supervision: timeouts everywhere, heartbeats, memory pressure.

Three independent guards keep a long campaign from wedging:

* :func:`cell_deadline` — the per-cell wall-clock budget. On a POSIX
  main thread it is the classic ``SIGALRM`` interval timer (interrupts
  even blocking syscalls). Everywhere else — Windows, or a cell driven
  from a non-main thread — a watchdog :class:`threading.Timer` delivers
  :class:`~repro.campaign.runner.CellTimeout` asynchronously into the
  running thread via ``PyThreadState_SetAsyncExc``: it lands at the
  next bytecode boundary, which is immediate for the CPU-bound
  simulation loops cells actually run. **Limit:** off the main thread
  a single blocking C call (one long ``time.sleep``, a socket read, a
  ``numpy`` kernel) is not interruptible — the exception is delivered
  only when that call returns, however late. Which mechanism enforced
  each attempt is reported as ``timeout_mode`` telemetry.
* :class:`WorkerHeartbeat` / :func:`read_heartbeats` — pool workers
  stamp a per-pid heartbeat file when a cell starts and every
  ``interval`` seconds while it runs. The parent maps in-flight cell
  indexes to worker pids through these files, so deadline-based
  hung-worker detection can ``SIGKILL`` exactly the wedged worker (the
  resulting broken pool re-enters the runner's cautious-restart path,
  which retries the cell).
* :func:`rss_bytes` — current resident set size without psutil
  (``/proc/self/statm``, falling back to ``ru_maxrss``), feeding the
  fleet accumulator's graceful exact -> sketch degradation under
  memory pressure.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

#: ``timeout_mode`` telemetry values (per attempt).
TIMEOUT_OFF = "off"          # no timeout requested
TIMEOUT_SIGNAL = "signal"    # SIGALRM interval timer
TIMEOUT_THREAD = "thread"    # watchdog thread + async exception
TIMEOUT_NONE = "none"        # could not be enforced


def timeout_mode(timeout: Optional[float]) -> str:
    """Which enforcement mechanism :func:`cell_deadline` would use."""
    if timeout is None or timeout <= 0:
        return TIMEOUT_OFF
    if (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()):
        return TIMEOUT_SIGNAL
    if hasattr(ctypes, "pythonapi"):
        return TIMEOUT_THREAD
    return TIMEOUT_NONE


def _async_raise(thread_id: int, exc_type) -> None:
    """Queue ``exc_type`` in the thread with ident ``thread_id``."""
    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_id), ctypes.py_object(exc_type))


class _Drain(BaseException):
    """Throwaway async exception that unsets the interpreter's signal."""


@contextmanager
def cell_deadline(timeout: Optional[float], exc_type, *,
                  mode: Optional[str] = None):
    """Raise ``exc_type`` in the calling thread after ``timeout`` seconds.

    ``mode`` overrides auto-detection (tests force the thread fallback
    on platforms where SIGALRM would win). ``TIMEOUT_NONE``/``OFF``
    run the body unguarded.
    """
    mode = mode or timeout_mode(timeout)
    if mode in (TIMEOUT_OFF, TIMEOUT_NONE):
        yield mode
        return

    if mode == TIMEOUT_SIGNAL:
        def _on_alarm(signum, frame):
            raise exc_type(f"cell exceeded {timeout:g}s timeout")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            yield mode
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    # Thread fallback: a daemon Timer queues the timeout exception
    # asynchronously into this thread.
    thread_id = threading.get_ident()
    fired = threading.Event()

    def _fire() -> None:
        fired.set()
        _async_raise(thread_id, exc_type)

    timer = threading.Timer(timeout, _fire)
    timer.daemon = True
    timer.start()
    try:
        yield mode
    except exc_type:
        raise
    finally:
        timer.cancel()
        timer.join()
        if fired.is_set():
            # The timer fired but the body may have finished first.
            # Swap any still-queued exception for a throwaway one and
            # consume it: clearing with NULL would leave CPython 3.11's
            # async-exception signal set, and every later
            # ``sys.settrace`` tracer would spin on its first line.
            try:
                _async_raise(thread_id, _Drain)
                for _ in range(1_000_000):
                    pass
            except _Drain:
                pass


# -- worker heartbeats ---------------------------------------------------------


class WorkerHeartbeat:
    """Worker-side heartbeat: stamp ``<dir>/hb-<pid>.json`` while a cell
    runs.

    The file carries ``{"pid", "index", "time"}`` — enough for the
    parent to (a) know which worker owns which in-flight cell and
    (b) kill precisely the wedged one. Written atomically (temp +
    rename) so the parent never reads a torn stamp.
    """

    def __init__(self, directory, index: int,
                 interval: float = 0.5) -> None:
        self.directory = Path(directory)
        self.index = index
        self.interval = interval
        self.pid = os.getpid()
        self.path = self.directory / f"hb-{self.pid}.json"
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _stamp(self) -> None:
        payload = json.dumps({"pid": self.pid, "index": self.index,
                              "time": time.time()})
        tmp = self.path.with_suffix(f".tmp{self.pid}")
        try:
            tmp.write_text(payload)
            os.replace(tmp, self.path)
        except OSError:
            pass  # heartbeat loss degrades supervision, never the cell

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._stamp()

    def __enter__(self) -> "WorkerHeartbeat":
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            return self
        self._stamp()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"heartbeat-{self.pid}")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
        try:
            self.path.unlink()
        except OSError:
            pass


def read_heartbeats(directory) -> dict:
    """Parent-side view: ``{cell_index: (pid, stamp_time)}``.

    Torn or foreign files are skipped; a dead pid's leftover stamp is
    ignored by the caller's liveness check.
    """
    owners: dict = {}
    try:
        paths = list(Path(directory).glob("hb-*.json"))
    except OSError:
        return owners
    for path in paths:
        try:
            payload = json.loads(path.read_text())
            owners[int(payload["index"])] = (int(payload["pid"]),
                                             float(payload["time"]))
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return owners


def kill_worker(pid: int) -> bool:
    """SIGKILL (or terminate) one worker process; True if signalled."""
    try:
        if hasattr(signal, "SIGKILL"):
            os.kill(pid, signal.SIGKILL)
        else:  # pragma: no cover - Windows
            os.kill(pid, signal.SIGTERM)
        return True
    except (OSError, ProcessLookupError):
        return False


# -- memory pressure -----------------------------------------------------------


_PAGE_SIZE = None


def rss_bytes() -> Optional[int]:
    """Current resident set size of this process, or None if unknown.

    Reads ``/proc/self/statm`` (Linux); falls back to the peak
    (``ru_maxrss``) from :mod:`resource`, which only ever grows — still
    sufficient for a degrade-once watchdog. No third-party deps.
    """
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        if _PAGE_SIZE is None:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; both only matter as an upper
        # bound here, so take the conservative (larger) reading.
        return int(peak) * 1024
    except (ImportError, ValueError, OSError):
        return None


class MemoryWatchdog:
    """Fire ``on_pressure(rss)`` once when RSS crosses ``limit_bytes``.

    Polled explicitly (:meth:`check`) from cheap places — the campaign
    consume path — rather than from a thread, so behaviour stays
    deterministic relative to cell completion order.
    """

    def __init__(self, limit_bytes: int, on_pressure) -> None:
        self.limit_bytes = limit_bytes
        self.on_pressure = on_pressure
        self.fired = False

    def check(self) -> bool:
        if self.fired:
            return True
        rss = rss_bytes()
        if rss is not None and rss > self.limit_bytes:
            self.fired = True
            self.on_pressure(rss)
            return True
        return False
