"""Sliding-window building blocks of the Fortune Teller and Feedback Updater.

The paper sets the window to 40 ms — roughly one frame interval of a
25 fps stream — so that the average covers at least one sender burst
(§4.2) while still tracking sub-RTT fluctuation.

One body per estimator step
---------------------------
This module is the only place estimator state is touched: the Fortune
Teller and the Feedback Updater call the methods below and never name
an estimator attribute that starts with an underscore
(``tests/test_core_single_copy.py`` pins that, and the number of Python
frames one data packet, one ACK and one AMPDU may cost).  Each step is
one frame — window expiry is written out in the record and query
methods rather than shared through a helper call — and the record
methods are batch-aware: ``count`` same-instant departures are one
call, so the per-packet API is the burst of one, not a second body.

Amortized-O(1) invariant
------------------------
Every estimator does amortized O(1) work per recorded event *and* per
datapath query.  This is the property that lets the Zhuge control loop
run on every packet (Fig. 21: near-linear scaling in concurrent flows):

* byte sums are running ``int`` sums maintained on record/expire
  (``SlidingWindowRate``);
* ``DequeueIntervalEstimator.average_interval`` caches its mean and
  recomputes it only after the window changed — at most once per
  departure burst, over at most ``window / AMPDU_INTERVAL`` entries;
* the windowed maximum in ``BurstSizeTracker`` is a monotonic deque, so
  ``max_burst_bytes`` reads the front instead of scanning all bursts;
* ``DelayDeltaHistory.sample`` indexes the live suffix of a ring buffer
  instead of materializing the window as a list.

No float sum is kept running.  ``DelayDeltaHistory.mean`` and
``TokenBank.total`` are O(window) reads that no datapath call makes
(drivers, tests and trace probes do), and the interval mean is
re-summed as above; each takes ``math.fsum`` of the live window — its
correctly-rounded sum — so expired entries leave no drift.
``tests/test_properties_hotpath.py`` asserts behavioural equivalence —
burst calls included — against the naive per-packet re-scan
implementations kept in ``tests/reference_sliding_window.py``, and
``tests/test_cost_bounds.py`` counts a query's bytecodes at two window
fills: they are equal.

Each estimator counts its operations in ``.ops`` (one per recorded
packet and per query) for the :mod:`repro.metrics.hotpath` profiling
module.
"""

from __future__ import annotations

import math
from collections import deque
from operator import itemgetter
from typing import Optional

from repro.sim.random import DeterministicRandom

DEFAULT_WINDOW = 0.040
#: §4.2's AMPDU granularity: departures "less than one millisecond"
#: apart are one aggregated AMPDU.  It is the shortest dequeue interval
#: counted, the burst tracker's resolution and the shortest span a rate
#: is divided by.
AMPDU_INTERVAL = 0.001
#: Longest dequeue interval counted as transmission time; longer ones
#: are the idle gaps of an app-limited flow.
MAX_TX_INTERVAL = 0.030
#: Size cap of a :class:`TokenBank` until a policy re-bounds it.
MAX_TOKENS = 65536

#: The value of a ``(stamp, value)`` window entry.
_value_of = itemgetter(1)


class SlidingWindowRate:
    """Average rate (bps) of recorded byte events over a sliding window.

    During warm-up — before the estimator has seen a full window of
    traffic — the byte count is divided by the elapsed busy time
    ``min(window, now - first_event_time)`` (floored at
    ``AMPDU_INTERVAL``)
    instead of the full window.  Dividing by the full window would
    under-report txRate (and inflate qLong) for the first 40 ms of a
    flow and right after the long-window fallback engages.  The elapsed
    clock restarts whenever the window empties (idle gap > window).
    """

    def __init__(self, window: float = DEFAULT_WINDOW):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = window
        self._events: deque[tuple[float, int]] = deque()
        self._bytes_in_window = 0
        self._first_event: Optional[float] = None
        self.ops = 0

    def record(self, now: float, nbytes: int, count: int = 1) -> None:
        """Record ``count`` same-instant events totalling ``nbytes``.

        A burst is one window entry: its packets share one stamp, so
        they expire at the same query, and byte sums are ints, so
        ``_bytes_in_window`` — hence every rate — is exactly what
        ``count`` single records would leave.
        """
        self.ops += count
        horizon = now - self.window
        events = self._events
        while events and events[0][0] < horizon:
            self._bytes_in_window -= events.popleft()[1]
        if not events:
            self._first_event = now
        events.append((now, nbytes))
        self._bytes_in_window += nbytes

    def rate_bps(self, now: float) -> float:
        """Average rate over the (possibly warming-up) window; 0 when
        no events are in window."""
        self.ops += 1
        horizon = now - self.window
        events = self._events
        while events and events[0][0] < horizon:
            self._bytes_in_window -= events.popleft()[1]
        if not events:
            return 0.0
        span = now - self._first_event  # warm-up: elapsed busy time
        if span > self.window:
            span = self.window
        if span < AMPDU_INTERVAL:
            span = AMPDU_INTERVAL
        return self._bytes_in_window * 8 / span

    def reset(self) -> None:
        """Forget all events (AP restart / handover); keeps ``.ops``."""
        self._events.clear()
        self._bytes_in_window = 0
        self._first_event = None


class DequeueIntervalEstimator:
    """Average interval between packet departures (the ``tx`` estimator).

    Intervals below ``AMPDU_INTERVAL`` (1 ms) are treated as parts of
    one aggregated AMPDU departure and skipped, per §4.2: "we do not
    calculate the intervals that are less than one millisecond".

    Intervals above ``MAX_TX_INTERVAL`` (30 ms) are idle gaps of an
    app-limited flow (e.g. the 40 ms spacing between video frames), not
    transmission time, and are skipped too — §4.2 requires the window to
    "cover at least two bursts from the sender so that packets are
    continuously measured"; counting idle gaps would report the frame
    interval as link-layer delay and destabilize delay-based CCAs.
    """

    def __init__(self, window: float = DEFAULT_WINDOW):
        self.window = window
        self._intervals: deque[tuple[float, float]] = deque()
        #: Mean of ``_intervals``; ``None`` once the window changed.
        #: Predictions between departures read it without a re-sum.
        self._mean: Optional[float] = 0.0
        self._last_departure: Optional[float] = None
        self.ops = 0

    def record_departure(self, now: float, count: int = 1) -> None:
        """Record ``count`` same-instant departures.

        Only the first packet of a burst can open a qualifying
        interval; the rest are zero intervals, which ``AMPDU_INTERVAL``
        excludes.
        """
        self.ops += count
        intervals = self._intervals
        if self._last_departure is not None:
            interval = now - self._last_departure
            if AMPDU_INTERVAL <= interval <= MAX_TX_INTERVAL:
                intervals.append((now, interval))
                self._mean = None
        self._last_departure = now
        horizon = now - self.window
        while intervals and intervals[0][0] < horizon:
            intervals.popleft()
            self._mean = None

    def average_interval(self, now: float) -> float:
        """Mean qualifying interval in the window; 0 with no samples."""
        self.ops += 1
        horizon = now - self.window
        intervals = self._intervals
        while intervals and intervals[0][0] < horizon:
            intervals.popleft()
            self._mean = None
        mean = self._mean
        if mean is None:
            mean = self._mean = (
                math.fsum(map(_value_of, intervals)) / len(intervals)
                if intervals else 0.0)
        return mean

    def reset(self) -> None:
        """Forget all intervals (AP restart / handover); keeps ``.ops``."""
        self._intervals.clear()
        self._mean = 0.0
        self._last_departure = None


class BurstSizeTracker:
    """Maximum size of simultaneous departures at 1 ms resolution (Eq. 1).

    Departures closer together than ``AMPDU_INTERVAL`` belong to one
    burst; the tracker reports the largest burst (bytes) seen in its
    window, which the Fortune Teller subtracts from qSize.

    The maximum is kept in a monotonic (decreasing-bytes) deque, so
    :meth:`max_burst_bytes` is O(1) instead of scanning every burst.
    The *current* (unclosed) burst is expired as soon as
    ``now - start >= window``: without that, a long idle gap would leave
    a stale current burst inflating the Eq. 1 correction exactly when
    the queue goes idle-then-bursty, making the Fortune Teller
    under-predict qLong on the first packets after the gap.
    """

    def __init__(self, window: float = 1.0):
        self.window = window
        self._bursts: deque[tuple[float, int]] = deque()  # (start, bytes)
        #: Decreasing bytes; holds the newest burst, so it is non-empty
        #: whenever ``_bursts`` is.
        self._max: deque[tuple[float, int]] = deque()
        self._current_start: Optional[float] = None
        self._current_bytes = 0
        self._last_departure: Optional[float] = None
        self.ops = 0

    def record_departure(self, now: float, nbytes: int,
                         head_bytes: Optional[int] = None,
                         count: int = 1) -> None:
        """Record ``count`` same-instant departures totalling ``nbytes``.

        ``head_bytes`` is the first packet's share of a burst.  Fed one
        by one, that packet either opens a burst or extends the current
        one, the stale-current retire runs, and the others extend
        whatever survived it — so the retire point sits between the
        head and the rest, and the head's size is what reproduces it.
        """
        self.ops += count
        head = nbytes if head_bytes is None else head_bytes
        bursts = self._bursts
        if (self._last_departure is None
                or now - self._last_departure >= AMPDU_INTERVAL):
            if self._current_start is not None:
                entry = (self._current_start, self._current_bytes)
                bursts.append(entry)
                while self._max and self._max[-1][1] <= entry[1]:
                    self._max.pop()
                self._max.append(entry)
            self._current_start = now
            self._current_bytes = head
        else:
            self._current_bytes += head
        self._last_departure = now
        horizon = now - self.window
        while bursts and bursts[0][0] < horizon:
            if bursts.popleft() is self._max[0]:
                self._max.popleft()
        if (self._current_start is not None
                and now - self._current_start >= self.window):
            self._current_start = None
            self._current_bytes = 0
        self._current_bytes += nbytes - head

    def max_burst_bytes(self, now: float) -> int:
        self.ops += 1
        horizon = now - self.window
        bursts = self._bursts
        while bursts and bursts[0][0] < horizon:
            if bursts.popleft() is self._max[0]:
                self._max.popleft()
        # Stale-current bugfix: an unclosed burst older than the window
        # must stop feeding the Eq. 1 correction.
        if (self._current_start is not None
                and now - self._current_start >= self.window):
            self._current_start = None
            self._current_bytes = 0
        best = self._current_bytes
        if self._max and self._max[0][1] > best:
            best = self._max[0][1]
        return best

    def reset(self) -> None:
        """Forget all bursts (AP restart / handover); keeps ``.ops``."""
        self._bursts.clear()
        self._max.clear()
        self._current_start = None
        self._current_bytes = 0
        self._last_departure = None


class DelayDeltaHistory:
    """Recent non-negative delay deltas, sampled distributionally (§5.2).

    Rather than mapping one data-packet delta onto one ACK (impossible:
    the streams are asynchronous), the updater keeps the distribution of
    recent deltas and samples it per ACK, achieving distributional
    equivalence between downlink delay increase and uplink ACK delays.

    The window lives in a ring buffer (a list plus a head index,
    compacted when the dead prefix dominates), so :meth:`sample` indexes
    the live suffix in O(1) instead of copying it per ACK.  No running
    sum is kept: the datapath never reads one, and :meth:`mean` takes
    ``math.fsum`` of the live suffix when it is called.
    """

    _COMPACT_MIN = 64  # compact once the dead prefix exceeds this and half

    def __init__(self, window: float = DEFAULT_WINDOW,
                 rng: Optional[DeterministicRandom] = None):
        self.window = window
        self.rng = rng or DeterministicRandom(0)
        self._times: list[float] = []
        self._values: list[float] = []
        self._head = 0
        self.ops = 0

    def push(self, now: float, delta: float) -> None:
        if not 0 <= delta < math.inf:
            raise ValueError(
                f"delta history only stores finite non-negative deltas: "
                f"{delta}")
        self.ops += 1
        times, values, head = self._times, self._values, self._head
        times.append(now)
        values.append(delta)
        horizon = now - self.window
        while times[head] < horizon:  # stops at the entry just pushed
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

    def sample(self, now: float) -> float:
        """Random recent delta; 0.0 when the window is empty."""
        self.ops += 1
        horizon = now - self.window
        times, head = self._times, self._head
        n = len(times)
        while head < n and times[head] < horizon:
            head += 1
        self._head = head
        if head == n:
            self.clear()
            return 0.0
        return self._values[head + self.rng.randindex(n - head)]

    def mean(self, now: float) -> float:
        """Mean delta in the window (``math.fsum``); 0.0 when empty."""
        self.ops += 1
        horizon = now - self.window
        times, head = self._times, self._head
        n = len(times)
        while head < n and times[head] < horizon:
            head += 1
        self._head = head
        if head == n:
            self.clear()
            return 0.0
        return math.fsum(self._values[head:]) / (n - head)

    def __len__(self) -> int:
        return len(self._times) - self._head


class TokenBank:
    """Bounded FIFO of delay-reduction tokens.

    The out-of-band updater's ``token_history``: Alg. 1 banks a token
    with :meth:`append`, Alg. 2 consumes them oldest-first with
    :meth:`spend`.  Two things a bare deque cannot do:

    * ``total`` is the correctly-rounded (``math.fsum``) sum of the
      banked tokens, taken when it is read — trace probes and
      end-of-run snapshots read it; ``append`` and ``spend`` keep no
      running sum;
    * growth is bounded: beyond ``max_entries`` the *oldest* tokens are
      evicted (they are the stalest claims on future ACKs), and with a
      ``ttl`` tokens banked more than that many seconds before an
      :meth:`expire` sweep are dropped — stale tokens banked before a
      blackout must not cancel delay that the post-recovery queue
      genuinely accrued.

    Every token carries the stamp its caller passes to :meth:`append`;
    without one it is stamped 0.0 and only the size cap applies.
    """

    __slots__ = ("max_entries", "ttl", "_entries", "capped", "expired")

    def __init__(self):
        self._entries: deque[tuple[float, float]] = deque()
        self.capped = 0    # tokens evicted by the size cap
        self.expired = 0   # tokens evicted by the ttl
        self.max_entries = MAX_TOKENS
        self.ttl: Optional[float] = None

    def set_limits(self, max_entries: int, ttl: Optional[float]) -> None:
        """Re-bound the bank: a shrink below the banked count evicts
        the oldest tokens and counts them in ``capped``, as the cap in
        :meth:`append` does."""
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive: {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        entries = self._entries
        while len(entries) > max_entries:
            entries.popleft()
            self.capped += 1

    def append(self, value: float, now: float = 0.0) -> None:
        if not 0 <= value < math.inf:
            raise ValueError(
                f"a token must be finite and non-negative: {value}")
        if len(self._entries) >= self.max_entries:
            self.popleft()
            self.capped += 1
        self._entries.append((now, value))

    def popleft(self) -> float:
        return self._entries.popleft()[1]

    def spend(self, amount: float) -> float:
        """Alg. 2's token loop: cancel ``amount`` of sampled delay
        against the oldest tokens; returns what is left to inject."""
        entries = self._entries
        while entries and amount > 0:
            stamp, front = entries[0]
            if front > amount:
                entries[0] = (stamp, front - amount)
                return 0.0
            amount -= entries.popleft()[1]
        return amount

    def expire(self, now: float) -> int:
        """Drop tokens older than ``ttl``; no-op when ttl is unset."""
        if self.ttl is None:
            return 0
        horizon = now - self.ttl
        dropped = 0
        entries = self._entries
        while entries and entries[0][0] < horizon:
            entries.popleft()
            dropped += 1
        self.expired += dropped
        return dropped

    def clear(self) -> None:
        self._entries.clear()

    @property
    def total(self) -> float:
        """Correctly-rounded sum of banked tokens (``math.fsum``)."""
        return math.fsum(map(_value_of, self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return (value for _, value in self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
