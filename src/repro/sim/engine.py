"""Discrete-event simulator.

Time is a float in seconds. Events are callables scheduled at an absolute
time; ties are broken by insertion order so the simulation is fully
deterministic for a fixed seed and schedule.

Scheduler layout
----------------
Every pending entry sits in one heap of ``(time, seq, event)`` tuples,
so sift comparisons run entirely in C (float/int tuple compare) instead
of calling a Python-level ``Event.__lt__``.  ``schedule(0.0)`` and
``call_at(now)`` push ``(now, seq)`` like any other time: the heap is
the exact total order ``(time, seq)``, ties broken by insertion order.

:meth:`Simulator.post` is ``schedule(0.0, callback)`` for a callback
that needs no handle.  When nothing older is pending at ``now`` — no
heap entry at ``now`` and no further item of the dispatching run at
``now`` — the posted callback is the next dispatch in that order, so
it runs at the end of the current dispatch instead of as an
:class:`Event` of its own (DESIGN.md §13).

Cancellation is O(1) (a flag): a cancelled event stays in the heap as
a tombstone until the run loop or :meth:`Simulator.peek` pops and skips
it.  The heap is never rebuilt: the ledger workloads cancel at most 91
events a run at seed 1, so tombstones never pile up (DESIGN.md §9).

Macro-event runs (the PR 10 event-model refactor)
-------------------------------------------------
A :class:`TimedRun` is a time-ordered stream of payloads sharing one
dispatcher function.  Instead of one :class:`Event` per packet, a
component pushes ``(time, payload)`` records onto a run; the run keeps
a **single sentinel** in the heap (for its head item) and the
run loop *run-ahead* fires consecutive items inline — without any heap
traffic — for as long as they are globally next in the exact
``(time, seq)`` total order.  Each item consumes one ``seq`` from the
shared counter, so a run item and an :class:`Event` at the same
instant tie-break exactly as two events would: moving a component from
one event per packet to a run keeps its trajectory bit for bit
(``tests/reference_links.py`` holds the links' per-packet oracles).

An item may be a *burst*: :meth:`TimedRun.extend` appends a list to the
still-pending item at the same instant when that item took the last
seq the simulator issued — nothing can sit between the two in the
``(time, seq)`` order, so the burst fires exactly where its parts
would have, in the same order.  The engine releases every payload as
it dispatches it.

A :class:`Timer` tick takes one seq when it is planted, after the
callback.  Ticks planted back to back at one instant share one heap
entry, a *tick group*: one dispatch fires them in seq order, split
wherever another entry sits between two members (DESIGN.md §13).

``events_processed`` counts every dispatch (events and run items
alike, a burst or a tick group as one; a post that ran in place is part
of the dispatch that posted it) and is engine *telemetry*; summary
digests pin ``packets_processed``, the packets the link layers
delivered.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Optional

class SimulationError(RuntimeError):
    """Raised for invalid scheduling operations."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`Simulator.call_at`). Cancelling an event is O(1): the event is
    flagged and skipped when reached.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.

        Safe to call more than once, and safe (a no-op) on an event
        that already fired — a stale handle kept after the callback ran
        must not make the event look retroactively cancelled.
        """
        if not self.fired:
            self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        if self.cancelled:
            state = "cancelled"
        elif self.fired:
            state = "fired"
        else:
            state = "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


def _push_error(time: float, bound: float, what: str) -> SimulationError:
    if math.isnan(time):
        return SimulationError("cannot push at NaN time")
    return SimulationError(f"{what}: {time} < {bound}")


class TimedRun:
    """A monotone stream of timed payloads sharing one dispatcher.

    Created through :meth:`Simulator.timed_run`.  ``push(time, payload)``
    appends a record (:meth:`extend` a burst); the engine calls
    ``fn(payload)`` at exactly ``time`` in the global ``(time, seq)``
    order (the seq is taken from the simulator's shared counter at push
    time, so ties against :class:`Event` entries resolve exactly as they
    would between two events).

    The run keeps at most one *sentinel* entry ``(time, seq, run)`` in
    the heap — for its head item — so a thousand-packet burst
    costs one heap push instead of a thousand.  Push times must be
    non-decreasing within a run (each stream models a FIFO resource:
    a link's arrival line, an AP's release queue).  Runs cannot be
    cancelled; components that need cancellation schedule events.
    The run drops its reference to a payload when it dispatches it.
    """

    __slots__ = ("_sim", "fn", "_times", "_seqs", "_payloads", "_head")

    #: Class attribute (not a slot): sentinels must look live to
    #: ``peek``, which tests ``entry[2].cancelled``.
    cancelled = False

    def __init__(self, sim: "Simulator", fn: Callable) -> None:
        self._sim = sim
        self.fn = fn
        self._times: list[float] = []
        self._seqs: list[int] = []
        self._payloads: list = []
        self._head = 0

    def push(self, time: float, payload) -> None:
        """Append ``payload`` to fire at absolute ``time`` (monotone).

        A non-empty run's last item is pending or being dispatched, so
        it is never behind the clock: the monotone check subsumes the
        past-time check, and its sentinel is planted (mid-dispatch: when
        the dispatch ends).  An empty run coming live plants one — in
        the heap even at ``time == now``, where the run loop's tie
        compare orders it exactly by seq.  The checks are written
        ``not >=`` so that a NaN ``time`` fails them too.
        """
        times = self._times
        sim = self._sim
        seq = sim._seq
        if times:
            if not time >= times[-1]:
                raise _push_error(time, times[-1], "TimedRun push out of order")
        elif not time >= sim._now:
            raise _push_error(time, sim._now, "cannot push in the past")
        else:
            heapq.heappush(sim._heap, (time, seq, self))
        sim._seq = seq + 1
        times.append(time)
        self._seqs.append(seq)
        self._payloads.append(payload)

    def extend(self, time: float, items: list) -> None:
        """Append the burst ``items`` to fire at ``time`` (monotone) as
        one ``fn(items)`` call; the run owns the list from here on.

        ``items`` joins the last item when that item is still pending,
        fires at ``time`` and took the last seq the simulator issued:
        nothing can fire between the two, so the joined burst fires
        exactly where both would have, in the same order.  Otherwise
        the list becomes a new item and takes one seq.
        """
        times = self._times
        if (times and time == times[-1] and len(times) > self._head
                and self._seqs[-1] == self._sim._seq - 1):
            self._payloads[-1] += items
        else:
            self.push(time, items)

    def pending(self) -> int:
        """Number of items not yet dispatched (a burst counts as one)."""
        return len(self._times) - self._head

    def __repr__(self) -> str:
        n = len(self._times) - self._head
        head = self._times[self._head] if n else None
        return f"TimedRun(pending={n}, head={head})"


class Simulator:
    """Discrete-event loop with a virtual clock.

    Example::

        sim = Simulator()
        sim.call_at(1.0, lambda: print(sim.now))
        sim.run(until=2.0)
    """

    #: The datapath's one event model (TimedRun bursts); kept as a
    #: constant because run records and ledger rows carry it.
    event_model = "macro"

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: Posted callbacks that run, in order, when the current
        #: dispatch returns (:meth:`post`).
        self._posted: "deque[Callable[[], None]]" = deque()
        self._seq = 0
        self._running = False
        #: The run being dispatched (its sentinel is off the heap).
        self._run: Optional[TimedRun] = None
        #: The tick group planted last: a timer planting at its instant,
        #: while that is still ahead, joins it (:class:`Timer`).
        self._tick: "Optional[_TickGroup]" = None
        self._events_processed = 0
        #: Packets delivered by the link layers: the dispatch-count
        #: metric that summary digests pin (``events_processed`` is
        #: telemetry).
        self.packets_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of dispatches executed so far (telemetry).

        Counts events and run items alike (a burst as one, a tick group
        as one per split), so the value moves whenever a component
        changes how it dispatches; digests pin ``packets_processed``.
        A callback that :meth:`post` ran in place is part of the
        dispatch that posted it: it is not counted here, nor toward
        ``run(max_events=)``.
        """
        return self._events_processed

    def timed_run(self, fn: Callable) -> TimedRun:
        """Create a :class:`TimedRun` dispatching through ``fn``."""
        return TimedRun(self, fn)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative delays are rejected; a zero delay runs the callback after
        all events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self._now + delay
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def post(self, callback: Callable[[], None]) -> None:
        """``schedule(0.0, callback)`` for a callback that needs no handle.

        When nothing older is pending at ``now`` — no heap entry at
        ``now`` and no further item of the dispatching run at ``now`` —
        every entry that could fire at ``now`` is younger, so the
        callback is the next dispatch in the ``(time, seq)`` order: it
        runs when the current dispatch returns (a burst included), after
        any earlier post, instead of as an :class:`Event`.  Otherwise,
        and outside :meth:`run`, it is scheduled (DESIGN.md §13).
        """
        now = self._now
        heap = self._heap
        run = self._run
        if (self._running and (not heap or heap[0][0] > now)
                and (run is None or run._head == len(run._times)
                     or run._times[run._head] > now)):
            self._posted.append(callback)
        else:
            self.schedule(0.0, callback)

    def call_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Stops when no events remain, when the next event is strictly past
        ``until``, or after ``max_events`` events (a run item counts as
        one event, a burst included, and so does a tick group up to the
        first entry between two members).  The clock is advanced
        to ``until`` only when every remaining event (if any) lies beyond
        it — a ``max_events`` stop with work still pending before
        ``until`` leaves the clock at the last executed event, so a
        resumed ``run`` observes a consistent virtual time.  Otherwise
        the clock moves only to an instant where something fired: a
        cancelled event left in the heap does not move it.  A NaN
        ``until`` is refused, as a NaN schedule time is.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until NaN time")
        self._running = True
        processed = 0
        try:
            heap = self._heap
            heappop = heapq.heappop
            posted = self._posted
            if until is None or self._now <= until:
                # Posts a raising callback left behind are the oldest
                # entries at ``now``.
                while posted:
                    posted.popleft()()
            while heap:
                if max_events is not None and processed >= max_events:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    break
                event = heappop(heap)[2]
                if event.__class__ is _TickGroup:
                    processed += self._dispatch_group(event)
                    continue
                if event.__class__ is not Event:
                    processed += self._dispatch_run(
                        event, until,
                        None if max_events is None
                        else max_events - processed)
                    continue
                if event.cancelled:
                    continue
                self._now = time
                event.fired = True
                event.callback()
                processed += 1
                while posted:
                    posted.popleft()()
            if until is not None and self._now < until:
                # Bugfix (PR 6): never teleport the clock past pending
                # events — only fast-forward when the schedule is empty
                # or the next event lies beyond ``until``.
                next_time = self.peek()
                if next_time is None or next_time > until:
                    self._now = until
        finally:
            # Flushed once per run; nothing reads the counter mid-run.
            self._events_processed += processed
            self._running = False

    def _dispatch_run(self, run: TimedRun, until: Optional[float],
                      limit: Optional[int]) -> int:
        """Fire ``run``'s head item plus run-ahead; return items fired.

        Called with the run's sentinel freshly popped from the heap.
        After the head item fires (and its posts drain), consecutive
        items keep firing inline — zero heap traffic — while each is
        globally next in the exact ``(time, seq)`` order (no heap entry
        at a smaller key).  On any tie or bound the loop stops and a
        fresh sentinel is planted for the new head, returning resolution
        to the main loop's full compare; correctness never depends on
        how far run-ahead got.  Each payload leaves the run's storage
        before ``fn`` sees it, so a busy run pins only what is pending.
        """
        times = run._times
        i = run._head
        if i == len(times):
            return 0  # stale sentinel (defensive; invariant keeps one)
        seqs = run._seqs
        payloads = run._payloads
        fn = run.fn
        heap = self._heap
        posted = self._posted
        fired = 0
        self._run = run
        try:
            while True:
                t = times[i]
                if until is not None and t > until:
                    break
                self._now = t
                run._head = i + 1
                payload = payloads[i]
                payloads[i] = None
                fn(payload)
                while posted:
                    posted.popleft()()
                fired += 1
                if limit is not None and fired >= limit:
                    break
                i = run._head
                if i == len(times):
                    break
                t2 = times[i]
                if heap:
                    h0 = heap[0]
                    h0t = h0[0]
                    if h0t < t2 or (h0t == t2 and h0[1] < seqs[i]):
                        break
        finally:
            self._run = None
            i = run._head
            if i < len(times):
                heapq.heappush(heap, (times[i], seqs[i], run))
                if i >= 1024 and 2 * i >= len(times):
                    # Busy run that never drains: drop the consumed
                    # prefix's slots once it is at least half the
                    # storage, so a never-idle link's bookkeeping stays
                    # O(pending) (amortised O(1) per item).
                    del times[:i]
                    del seqs[:i]
                    del payloads[:i]
                    run._head = 0
            elif i:
                # Drained: reset storage so a long campaign's runs do
                # not grow without bound.
                del times[:]
                del seqs[:]
                del payloads[:]
                run._head = 0
        return fired

    def _dispatch_group(self, group: "_TickGroup") -> int:
        """Fire the freshly popped ``group``'s members in seq order while
        each is globally next, then put the rest back on the heap under
        the next member's seq; posts run after the whole group
        (DESIGN.md §13).  Returns 1 if a member fired, else 0."""
        time = group.time
        heap = self._heap
        members = group.members
        n = len(members)
        i = group.head
        fired = 0
        try:
            while i < n:
                timer = members[i][2]
                if timer._stopped:
                    i += 1
                    continue
                if heap and heap[0] < members[i]:
                    break
                i += 1
                group.live -= 1
                timer._group = None
                self._now = time
                timer._fire()
                fired = 1
        finally:
            group.head = i
            if group.live:
                heapq.heappush(heap, (time, members[i][1], group))
        posted = self._posted
        while posted:
            posted.popleft()()
        return fired

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        if self._posted:
            return self._now
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of pending (non-cancelled) events, run items (a burst
        counts as one item), timer ticks (each member of a tick group
        counts, though the group fires as one dispatch) and posts."""
        count = len(self._posted)
        for _, _, obj in self._heap:
            if obj.__class__ is Event:
                if not obj.cancelled:
                    count += 1
            elif obj.__class__ is _TickGroup:
                count += obj.live
            else:
                count += len(obj._times) - obj._head
        return count


class _TickGroup:
    """Timer ticks planted at one instant, behind one heap entry keyed
    by the first pending member.  A member is ``(time, seq, timer)``;
    ``live`` counts the pending members not stopped."""

    __slots__ = ("time", "members", "head", "live")

    def __init__(self, member: tuple) -> None:
        self.time = member[0]
        self.members = [member]
        self.head = 0
        self.live = 1

    @property
    def cancelled(self) -> bool:
        return not self.live


class Timer:
    """Repeating timer bound to a :class:`Simulator`.

    Calls ``callback`` every ``interval`` seconds until :meth:`stop`.
    The first tick fires after one full interval (or after ``first_delay``
    when given).  Each tick is planted after the callback returns and
    takes one seq, as a ``schedule`` would; ticks planted back to back
    at one instant share a heap entry (a tick group, DESIGN.md §13).

    ``on_grid=True`` keeps every tick on the exact absolute grid
    ``first_tick + k * interval`` (one multiplication per tick) instead
    of accumulating ``now + interval`` per tick, whose floating-point
    rounding drifts off the grid within a handful of ticks and keeps
    drifting over long campaigns.  Changing ``interval`` re-anchors the
    grid at the already-scheduled next tick.  The default remains the
    legacy accumulating behaviour because the golden scenario digests
    (tests/data/golden_summaries.json) pin bit-exact trajectories of
    simulations built on it; new long-running campaigns should pass
    ``on_grid=True``.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None],
                 first_delay: Optional[float] = None,
                 on_grid: bool = False):
        if not interval > 0:
            raise SimulationError(f"timer interval must be positive: {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        #: The group holding the pending tick (``None`` while the tick
        #: fires, and once stopped).
        self._group: Optional[_TickGroup] = None
        self._stopped = False
        self._on_grid = on_grid
        delay = interval if first_delay is None else first_delay
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay}")
        #: Grid anchor: the first tick's absolute time; tick ``k`` after
        #: the anchor fires at exactly ``_anchor + k * _interval``.
        self._anchor = sim._now + delay
        self._plant(self._anchor)
        self._ticks = 0

    @property
    def interval(self) -> float:
        return self._interval

    @interval.setter
    def interval(self, value: float) -> None:
        if not value > 0:
            raise SimulationError(f"timer interval must be positive: {value}")
        self._interval = value
        if self._on_grid and not self._stopped:
            # Re-anchor: the next tick is already scheduled (or firing,
            # at ``now``); ticks after it land on the new grid from there.
            self._anchor = self._group.time if self._group else self._sim._now
            self._ticks = 0

    def _plant(self, time: float) -> None:
        """Take a seq for the tick at ``time``: join the group planted
        last when it is at ``time``, else push a new one."""
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        member = (time, seq, self)
        group = sim._tick
        if group is not None and group.live and group.time == time > sim._now:
            group.members.append(member)
            group.live += 1
        else:
            group = sim._tick = _TickGroup(member)
            heapq.heappush(sim._heap, (time, seq, group))
        self._group = group

    def _fire(self) -> None:
        self._callback()
        if self._stopped:
            return
        if self._on_grid:
            self._ticks += 1
            self._plant(self._anchor + self._ticks * self._interval)
        else:
            self._plant(self._sim._now + self._interval)

    def stop(self) -> None:
        """Cancel the timer; the callback will not fire again."""
        self._stopped = True
        group = self._group
        if group is not None:
            self._group = None
            group.live -= 1

    @property
    def stopped(self) -> bool:
        return self._stopped
