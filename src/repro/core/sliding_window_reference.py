"""Naive re-scan reference implementations of the sliding-window estimators.

These are the seed-era O(n)-per-query estimators, kept (with the same
bug fixes as the optimized versions: warm-up rate divisor, stale
current-burst expiry) as the behavioural oracle for the amortized-O(1)
implementations in :mod:`repro.core.sliding_window`:

* ``tests/test_properties_hotpath.py`` drives both against random event
  streams and asserts bit-identical outputs — means here use
  ``math.fsum`` (the correctly-rounded sum of the window), which the
  optimized exact-big-int accumulator reproduces exactly;
* ``benchmarks/bench_hotpath_regression.py`` measures the optimized
  versions' speedup over these and records it in ``BENCH_hotpath.json``.

Never use these on the datapath — every query re-scans its window.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.core.sliding_window import (AMPDU_INTERVAL, DEFAULT_WINDOW,
                                       MAX_TX_INTERVAL)
from repro.sim.random import DeterministicRandom


class ReferenceSlidingWindowRate:
    """Re-scan version of :class:`repro.core.sliding_window.SlidingWindowRate`."""

    def __init__(self, window: float = DEFAULT_WINDOW):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = window
        self._events: deque[tuple[float, int]] = deque()
        self._first_event: Optional[float] = None

    def record(self, now: float, nbytes: int) -> None:
        self._expire(now)
        if not self._events:
            self._first_event = now
        self._events.append((now, nbytes))

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def rate_bps(self, now: float) -> float:
        self._expire(now)
        if not self._events:
            return 0.0
        total = sum(nbytes for _, nbytes in self._events)  # O(n) re-scan
        span = self.window
        if self._first_event is not None:
            span = min(span, now - self._first_event)
        if span < AMPDU_INTERVAL:
            span = AMPDU_INTERVAL
        return total * 8 / span

    @property
    def event_count(self) -> int:
        return len(self._events)


class ReferenceDequeueIntervalEstimator:
    """Re-scan version of
    :class:`repro.core.sliding_window.DequeueIntervalEstimator`."""

    def __init__(self, window: float = DEFAULT_WINDOW):
        self.window = window
        self._intervals: deque[tuple[float, float]] = deque()
        self._last_departure: Optional[float] = None

    def record_departure(self, now: float) -> None:
        if self._last_departure is not None:
            interval = now - self._last_departure
            if AMPDU_INTERVAL <= interval <= MAX_TX_INTERVAL:
                self._intervals.append((now, interval))
        self._last_departure = now
        self._expire(now)

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._intervals and self._intervals[0][0] < horizon:
            self._intervals.popleft()

    def average_interval(self, now: float) -> float:
        self._expire(now)
        if not self._intervals:
            return 0.0
        # fsum = correctly-rounded sum of the window, the float the
        # optimized exact accumulator produces.
        return math.fsum(i for _, i in self._intervals) / len(self._intervals)


class ReferenceBurstSizeTracker:
    """Re-scan version of :class:`repro.core.sliding_window.BurstSizeTracker`."""

    def __init__(self, window: float = 1.0):
        self.window = window
        self._bursts: deque[tuple[float, int]] = deque()
        self._current_start: Optional[float] = None
        self._current_bytes = 0
        self._last_departure: Optional[float] = None

    def record_departure(self, now: float, nbytes: int) -> None:
        if (self._last_departure is None
                or now - self._last_departure >= AMPDU_INTERVAL):
            self._close_current()
            self._current_start = now
            self._current_bytes = nbytes
        else:
            self._current_bytes += nbytes
        self._last_departure = now
        self._expire(now)

    def _close_current(self) -> None:
        if self._current_start is not None:
            self._bursts.append((self._current_start, self._current_bytes))
        self._current_start = None
        self._current_bytes = 0

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._bursts and self._bursts[0][0] < horizon:
            self._bursts.popleft()
        if (self._current_start is not None
                and now - self._current_start >= self.window):
            self._current_start = None
            self._current_bytes = 0

    def max_burst_bytes(self, now: float) -> int:
        self._expire(now)
        best = self._current_bytes
        for _, nbytes in self._bursts:  # O(n) re-scan
            if nbytes > best:
                best = nbytes
        return best


class ReferenceDelayDeltaHistory:
    """Re-scan version of :class:`repro.core.sliding_window.DelayDeltaHistory`."""

    def __init__(self, window: float = DEFAULT_WINDOW,
                 rng: Optional[DeterministicRandom] = None):
        self.window = window
        self.rng = rng or DeterministicRandom(0)
        self._deltas: deque[tuple[float, float]] = deque()

    def push(self, now: float, delta: float) -> None:
        if delta < 0:
            raise ValueError(f"delta history only stores non-negative: {delta}")
        self._deltas.append((now, delta))
        self._expire(now)

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._deltas and self._deltas[0][0] < horizon:
            self._deltas.popleft()

    def sample(self, now: float) -> float:
        self._expire(now)
        if not self._deltas:
            return 0.0
        return self.rng.sample_from([d for _, d in self._deltas])  # O(n) copy

    def mean(self, now: float) -> float:
        self._expire(now)
        if not self._deltas:
            return 0.0
        return math.fsum(d for _, d in self._deltas) / len(self._deltas)

    def __len__(self) -> int:
        return len(self._deltas)
