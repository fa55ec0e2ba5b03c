"""Deterministic chaos harness for the campaign layer itself.

:mod:`repro.faults` injects faults into the *simulated* network; this
module injects faults into the *harness* — the process pool, the result
cache, the driver process — so the crash-safety machinery of
:mod:`repro.campaign` is exercised by tests and CI the same way the AP
watchdog is exercised by link faults.

A :class:`ChaosPlan` is parsed from a compact spec string::

    kill-worker@2,oom@4        # worker dies starting its 2nd cell,
                               # MemoryError on the 4th cell attempt
    exit-run@3                 # whole driver process exits after the
                               # 3rd completed cell (SIGKILL stand-in)
    hang@1                     # 1st cell attempt sleeps an hour
                               # (the --timeout alarm interrupts it)

Determinism across a process pool needs shared state: workers count
cell attempts through an O_APPEND one-byte-write counter file (atomic
on POSIX for appends this small) and claim each action through an
``O_CREAT | O_EXCL`` fire-once marker, both in a :class:`ChaosState`
scratch directory. So "kill the worker starting the 3rd cell" fires
exactly once per campaign no matter how many workers race, and a
re-run on the same directory sees the markers from the crashed run and
does not re-fire — which is exactly what lets the kill-resume digest
pin drive a real ``os._exit`` mid-campaign and then resume to
completion by re-running on the same result cache.

:func:`corrupt_entry` covers the storage-damage cases (torn or
bit-flipped cache entry) without any process gymnastics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

#: Actions enforced inside a worker process (count = cell attempts
#: *started*, 1-based, campaign-wide).
WORKER_ACTIONS = ("kill-worker", "oom", "hang")
#: Actions enforced by the driver process (count = cells *completed*).
DRIVER_ACTIONS = ("exit-run",)
CHAOS_ACTIONS = WORKER_ACTIONS + DRIVER_ACTIONS

#: Exit code used by chaos-induced process deaths, distinct from
#: ordinary crashes so tests can assert the death was the planned one.
CHAOS_EXIT_CODE = 9


@dataclass(frozen=True)
class ChaosAction:
    """One planned harness fault: ``kind`` fires at count ``at``."""

    kind: str
    at: int

    @property
    def tag(self) -> str:
        return f"{self.kind}@{self.at}"


@dataclass(frozen=True)
class ChaosPlan:
    """A parsed, immutable set of harness faults."""

    actions: tuple = ()

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse ``"kind@N[,kind@N...]"`` (whitespace tolerated)."""
        actions = []
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, at = part.partition("@")
            kind = kind.strip()
            if kind not in CHAOS_ACTIONS:
                raise ValueError(
                    f"unknown chaos action {kind!r} "
                    f"(known: {', '.join(CHAOS_ACTIONS)})")
            if not sep:
                raise ValueError(f"chaos action {part!r} needs '@<count>'")
            at = at.strip()
            if not at.isdecimal() or int(at) < 1:
                raise ValueError(f"chaos action {part!r} needs a whole "
                                 f"count >= 1 after '@'")
            actions.append(ChaosAction(kind=kind, at=int(at)))
        return cls(actions=tuple(actions))

    def as_spec(self) -> str:
        return ",".join(action.tag for action in self.actions)

    def worker_actions(self) -> list:
        return [a for a in self.actions if a.kind in WORKER_ACTIONS]

    def driver_actions(self) -> list:
        return [a for a in self.actions if a.kind in DRIVER_ACTIONS]


class ChaosState:
    """Cross-process chaos bookkeeping in one scratch directory.

    * :meth:`next_count` — an atomic campaign-wide counter: every call
      appends one byte to ``counter`` (POSIX guarantees O_APPEND
      single-byte writes are atomic) and returns its own file offset
      after the write — not the file size, which a concurrent append
      may already have moved past it.
    * :meth:`fire_once` — at-most-once claims via ``O_CREAT | O_EXCL``
      marker files; the claim persists across crashes and resumes.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    def _counter_path(self, name: str) -> Path:
        return self.directory / f"counter-{name}"

    def next_count(self, name: str = "cells") -> int:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._counter_path(name),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, b".")
            return os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)

    def count(self, name: str = "cells") -> int:
        try:
            return self._counter_path(name).stat().st_size
        except OSError:
            return 0

    def fire_once(self, tag: str) -> bool:
        """True exactly once per ``tag`` across every process and run."""
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.directory / f"fired-{tag}",
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        os.close(fd)
        return True


class ChaosWorker:
    """Picklable campaign worker that executes the plan's worker faults.

    Drop-in for ``run_campaign(worker=...)``: every cell attempt bumps
    the shared counter, fires any worker-side action planned for that
    count (exactly once, campaign-wide), then runs the real cell body.
    """

    def __init__(self, plan_spec: str, state_dir) -> None:
        self.plan_spec = str(plan_spec)
        self.state_dir = str(state_dir)

    def __call__(self, spec):
        # Imported lazily: repro.campaign.spec itself imports
        # repro.faults.spec, so a module-level runner import here would
        # cycle through a partially-initialized repro.campaign.
        from repro.campaign.runner import execute_spec
        plan = ChaosPlan.parse(self.plan_spec)
        state = ChaosState(self.state_dir)
        count = state.next_count("cells")
        for action in plan.worker_actions():
            if action.at != count or not state.fire_once(action.tag):
                continue
            if action.kind == "kill-worker":
                os._exit(CHAOS_EXIT_CODE)
            elif action.kind == "oom":
                raise MemoryError(f"chaos: injected OOM at cell {count}")
            elif action.kind == "hang":
                time.sleep(3600.0)
        return execute_spec(spec)


def chaos_progress(plan: ChaosPlan, state: ChaosState,
                   inner: Optional[Callable] = None) -> Callable:
    """Wrap a progress callback with the plan's driver-side faults.

    ``exit-run@N`` hard-exits the driver process (``os._exit``, no
    cleanup) at the N-th terminal cell event, before that cell is
    cached — the closest a test can get to ``kill -9`` while still
    choosing the moment deterministically.
    """
    def hook(event: str, cell, stats) -> None:
        if inner is not None:
            inner(event, cell, stats)
        if event == "retry":
            return
        completed = state.next_count("done")
        for action in plan.driver_actions():
            if action.kind == "exit-run" and action.at == completed:
                if state.fire_once(action.tag):
                    os._exit(CHAOS_EXIT_CODE)
    return hook


def corrupt_entry(cache_root, *, index: int = 0,
                  mode: str = "truncate") -> Optional[Path]:
    """Damage one result-cache entry in place (chaos/test helper).

    ``mode="truncate"`` chops the file mid-body (a torn foreign write);
    ``mode="flip"`` flips one byte deep in the body (bit rot). Entries
    are taken in sorted order; returns the damaged path or None if the
    cache holds fewer than ``index + 1`` entries.
    """
    root = Path(cache_root)
    entries = sorted(path for path in root.glob("*/*.json")
                     if path.parent.name != "quarantine")
    if index >= len(entries):
        return None
    path = entries[index]
    blob = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(blob[:max(1, len(blob) // 2)])
    elif mode == "flip":
        offset = len(blob) * 3 // 4
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def build_chaos(spec: str, state_dir, *,
                progress: Optional[Callable] = None
                ) -> tuple[ChaosWorker, Callable]:
    """One-call CLI/test wiring: ``(worker, progress_hook)`` for a plan.

    The returned worker replaces ``run_campaign``'s cell body and the
    hook replaces its progress callback (chaining ``progress``).
    """
    plan = ChaosPlan.parse(spec)
    state = ChaosState(state_dir)
    worker = ChaosWorker(plan.as_spec(), state_dir)
    return worker, chaos_progress(plan, state, progress)


__all__: Sequence[str] = (
    "CHAOS_ACTIONS",
    "CHAOS_EXIT_CODE",
    "ChaosAction",
    "ChaosPlan",
    "ChaosState",
    "ChaosWorker",
    "build_chaos",
    "chaos_progress",
    "corrupt_entry",
)
