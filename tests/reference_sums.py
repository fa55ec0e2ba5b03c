"""Oracles for the windowed sums: the running exact sums they replace.

Before the estimators took their float sums on read, every windowed
float sum was an :class:`ExactFloatSum` — binary fixed-point over
Python big ints — kept current on each push, expiry and spend:

* ``DequeueIntervalEstimator._sum`` (here
  :class:`SummingDequeueIntervalEstimator`), read on every prediction;
* ``DelayDeltaHistory._sum`` (:class:`SummingDelayDeltaHistory`), read
  only by ``mean``;
* ``TokenBank._sum`` (:class:`SummingTokenBank`), read only by
  ``total``;
* the watchdog's ``_error_sum`` (:class:`SummingWatchdog`: the live
  watchdog with its four error-window methods put back), read by
  ``mean_error``.

The bodies are kept verbatim apart from the class names.
``tests/test_windowed_sums.py`` drives them and the live classes with
one random schedule and compares every read with ``float.hex``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.faults.watchdog import (STATE_DEGRADED, STATE_HEALTHY,
                                  EstimatorHealthWatchdog)
from repro.sim.random import DeterministicRandom

DEFAULT_WINDOW = 0.040

class ExactFloatSum:
    """Exact running sum of floats, supporting subtraction.

    Values are accumulated in binary fixed-point over Python big ints
    (every finite double is n/2**e exactly), so add/subtract are exact
    and a window that empties returns to an exact zero — no compensated
    residue, no drift.  :meth:`value` rounds the exact sum to the
    nearest double, which is by construction the same float
    ``math.fsum`` returns for the live window.
    """

    __slots__ = ("_num", "_exp", "_value")

    def __init__(self):
        self._num = 0   # sum == _num / 2**_exp exactly
        self._exp = 0
        #: Cached rounded value; ``None`` after any mutation.  A query
        #: between mutations (predict between departures) skips the
        #: big-int division entirely.
        self._value: Optional[float] = 0.0

    def add(self, x: float) -> None:
        n, d = x.as_integer_ratio()
        e = d.bit_length() - 1  # d is a power of two for finite floats
        exp = self._exp
        if e > exp:
            self._num = (self._num << (e - exp)) + n
            self._exp = e
        else:
            self._num += n << (exp - e)
        self._value = None

    def subtract(self, x: float) -> None:
        n, d = x.as_integer_ratio()
        e = d.bit_length() - 1
        exp = self._exp
        if e > exp:
            self._num = (self._num << (e - exp)) - n
            self._exp = e
        else:
            self._num -= n << (exp - e)
        self._value = None

    def reset(self) -> None:
        self._num = 0
        self._exp = 0
        self._value = 0.0

    def value(self) -> float:
        # int/int true division is correctly rounded.
        result = self._value
        if result is None:
            result = self._num / (1 << self._exp)
            self._value = result
        return result


class SummingDequeueIntervalEstimator:
    """Average interval between packet departures (the ``tx`` estimator).

    Intervals below ``min_interval`` (default 1 ms) are treated as parts
    of one aggregated AMPDU departure and skipped, per §4.2: "we do not
    calculate the intervals that are less than one millisecond".

    Intervals above ``max_interval`` (default 30 ms) are idle gaps of an
    app-limited flow (e.g. the 40 ms spacing between video frames), not
    transmission time, and are skipped too — §4.2 requires the window to
    "cover at least two bursts from the sender so that packets are
    continuously measured"; counting idle gaps would report the frame
    interval as link-layer delay and destabilize delay-based CCAs.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 min_interval: float = 0.001,
                 max_interval: float = 0.030):
        self.window = window
        self.min_interval = min_interval
        self.max_interval = max_interval
        self._intervals: deque[tuple[float, float]] = deque()
        self._sum = ExactFloatSum()
        self._last_departure: Optional[float] = None
        self.ops = 0

    def record_departure(self, now: float, count: int = 1) -> None:
        """Record ``count`` same-instant departures.

        Only the first packet of a burst can open a qualifying
        interval; the rest are zero intervals, which ``min_interval``
        excludes.  ``count > 1`` therefore needs ``min_interval > 0``
        (the Fortune Teller feeds such configs packet by packet).
        """
        self.ops += count
        intervals = self._intervals
        if self._last_departure is not None:
            interval = now - self._last_departure
            if self.min_interval <= interval <= self.max_interval:
                intervals.append((now, interval))
                self._sum.add(interval)
        self._last_departure = now
        horizon = now - self.window
        while intervals and intervals[0][0] < horizon:
            self._sum.subtract(intervals.popleft()[1])
        if not intervals:
            self._sum.reset()

    def average_interval(self, now: float) -> float:
        """Mean qualifying interval in the window; 0 with no samples."""
        self.ops += 1
        horizon = now - self.window
        intervals = self._intervals
        while intervals and intervals[0][0] < horizon:
            self._sum.subtract(intervals.popleft()[1])
        if not intervals:
            self._sum.reset()
            return 0.0
        return self._sum.value() / len(intervals)

    def reset(self) -> None:
        """Forget all intervals (AP restart / handover); keeps ``.ops``."""
        self._intervals.clear()
        self._sum.reset()
        self._last_departure = None


class SummingDelayDeltaHistory:
    """Recent non-negative delay deltas, sampled distributionally (§5.2).

    Rather than mapping one data-packet delta onto one ACK (impossible:
    the streams are asynchronous), the updater keeps the distribution of
    recent deltas and samples it per ACK, achieving distributional
    equivalence between downlink delay increase and uplink ACK delays.

    The window lives in a ring buffer (a list plus a head index,
    compacted when the dead prefix dominates), so :meth:`sample` indexes
    the live suffix in O(1) instead of copying it per ACK, and
    :meth:`mean` reads a running exact sum.
    """

    _COMPACT_MIN = 64  # compact once the dead prefix exceeds this and half

    def __init__(self, window: float = DEFAULT_WINDOW,
                 rng: Optional[DeterministicRandom] = None):
        self.window = window
        self.rng = rng or DeterministicRandom(0)
        self._times: list[float] = []
        self._values: list[float] = []
        self._head = 0
        self._sum = ExactFloatSum()
        self.ops = 0

    def push(self, now: float, delta: float) -> None:
        if delta < 0:
            raise ValueError(f"delta history only stores non-negative: {delta}")
        self.ops += 1
        times, values, head = self._times, self._values, self._head
        times.append(now)
        values.append(delta)
        self._sum.add(delta)
        horizon = now - self.window
        while times[head] < horizon:  # stops at the entry just pushed
            self._sum.subtract(values[head])
            head += 1
        # Storage only grows here, so compacting here bounds it.
        if head > self._COMPACT_MIN and head * 2 > len(times):
            del times[:head]
            del values[:head]
            head = 0
        self._head = head

    def clear(self) -> None:
        """Drop the whole window (e.g. when a flow's ledger resets)."""
        self._times.clear()
        self._values.clear()
        self._head = 0
        self._sum.reset()

    def sample(self, now: float) -> float:
        """Random recent delta; 0.0 when the window is empty."""
        self.ops += 1
        horizon = now - self.window
        times, head = self._times, self._head
        n = len(times)
        while head < n and times[head] < horizon:
            self._sum.subtract(self._values[head])
            head += 1
        self._head = head
        if head == n:
            self.clear()
            return 0.0
        return self._values[head + self.rng.randindex(n - head)]

    def mean(self, now: float) -> float:
        self.ops += 1
        horizon = now - self.window
        times, head = self._times, self._head
        n = len(times)
        while head < n and times[head] < horizon:
            self._sum.subtract(self._values[head])
            head += 1
        self._head = head
        if head == n:
            self.clear()
            return 0.0
        return self._sum.value() / (n - head)

    def __len__(self) -> int:
        return len(self._times) - self._head


class SummingTokenBank:
    """Bounded FIFO of delay-reduction tokens with an O(1) running sum.

    The out-of-band updater's ``token_history``: Alg. 1 banks a token
    with :meth:`append`, Alg. 2 consumes them oldest-first with
    :meth:`spend`.  Two things a bare deque cannot do:

    * ``total`` reads an :class:`ExactFloatSum` instead of
      ``sum(deque)`` — O(1) per query, exact to the last bit;
    * growth is bounded: beyond ``max_entries`` the *oldest* tokens are
      evicted (they are the stalest claims on future ACKs), and with a
      ``ttl`` tokens banked more than that many seconds before an
      :meth:`expire` sweep are dropped — stale tokens banked before a
      blackout must not cancel delay that the post-recovery queue
      genuinely accrued.

    Every token carries the stamp its caller passes to :meth:`append`;
    without one it is stamped 0.0 and only the size cap applies.
    """

    __slots__ = ("max_entries", "ttl", "_entries", "_sum", "capped",
                 "expired")

    def __init__(self, max_entries: int = 65536,
                 ttl: Optional[float] = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive: {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._entries: deque[tuple[float, float]] = deque()
        self._sum = ExactFloatSum()
        self.capped = 0    # tokens evicted by the size cap
        self.expired = 0   # tokens evicted by the ttl

    def append(self, value: float, now: float = 0.0) -> None:
        if len(self._entries) >= self.max_entries:
            self.popleft()
            self.capped += 1
        self._entries.append((now, value))
        self._sum.add(value)

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def popleft(self) -> float:
        _, value = self._entries.popleft()
        self._sum.subtract(value)
        if not self._entries:
            self._sum.reset()
        return value

    def spend(self, amount: float) -> float:
        """Alg. 2's token loop: cancel ``amount`` of sampled delay
        against the oldest tokens; returns what is left to inject."""
        entries = self._entries
        while entries and amount > 0:
            stamp, front = entries[0]
            if front > amount:
                entries[0] = (stamp, front - amount)
                self._sum.subtract(front)
                self._sum.add(front - amount)
                return 0.0
            amount -= self.popleft()
        return amount

    def expire(self, now: float) -> int:
        """Drop tokens older than ``ttl``; no-op when ttl is unset."""
        if self.ttl is None:
            return 0
        horizon = now - self.ttl
        dropped = 0
        entries = self._entries
        while entries and entries[0][0] < horizon:
            self.popleft()
            dropped += 1
        self.expired += dropped
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._sum.reset()

    @property
    def total(self) -> float:
        """Exact sum of banked tokens (what ``sum(deque)`` used to be)."""
        if not self._entries:
            return 0.0
        return self._sum.value()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return (value for _, value in self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


class SummingWatchdog(EstimatorHealthWatchdog):
    """The watchdog whose error window keeps a running exact sum."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._error_sum = ExactFloatSum()

    def note_delivery(self, predicted: float, actual: float) -> None:
        """One joined pair (the join's ``on_pair``): window its error."""
        now = self.sim.now
        error = abs(actual - predicted)
        self._errors.append((now, error))
        self._error_sum.add(error)
        self._expire_errors(now)

    def notify_reset(self) -> None:
        """The estimators were just wiped — demote immediately.

        A reset invalidates the joined error history; the AP clears the
        join's open predictions (made by the dead estimator state).
        """
        self._errors.clear()
        self._error_sum.reset()
        self._unhealthy_since = None
        self._healthy_since = None
        if self.state == STATE_HEALTHY:
            self._transition(STATE_DEGRADED, "reset")

    @property
    def mean_error(self) -> float:
        if not self._errors:
            return 0.0
        return self._error_sum.value() / len(self._errors)

    def _expire_errors(self, now: float) -> None:
        horizon = now - self.config.health_window
        while self._errors and self._errors[0][0] < horizon:
            _, error = self._errors.popleft()
            self._error_sum.subtract(error)
        if not self._errors:
            self._error_sum.reset()
