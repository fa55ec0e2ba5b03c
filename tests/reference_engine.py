"""Oracle for the engine's periodic timer: one scheduled event per tick.

The ``Timer`` below is the body ``repro.sim.engine.Timer`` had before
timers that re-plant at one instant came to share a heap entry (a tick
group), kept verbatim.  Every tick is an :class:`Event` of its own,
re-planted through ``schedule`` / ``call_at`` after the callback
returns, so each tick takes one seq and is one dispatch.

``tests/test_tick_groups.py`` replays random timer schedules against
it and requires the same call log, clock, ``peek()`` and ``pending()``;
``tests/reference_rtp.py`` drives the NACK oracle's timers with it, so
the reference receiver's event count and grid reads stay those of one
event per tick.
"""

from typing import Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class Timer:
    """Repeating timer bound to a :class:`Simulator`.

    Calls ``callback`` every ``interval`` seconds until :meth:`stop`.
    The first tick fires after one full interval (or after ``first_delay``
    when given).

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
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive: {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._stopped = False
        self._on_grid = on_grid
        delay = interval if first_delay is None else first_delay
        self._event = sim.schedule(delay, self._fire)
        #: Grid anchor: the first tick's absolute time; tick ``k`` after
        #: the anchor fires at exactly ``_anchor + k * _interval``.
        self._anchor = self._event.time
        self._ticks = 0

    @property
    def interval(self) -> float:
        return self._interval

    @interval.setter
    def interval(self, value: float) -> None:
        if value <= 0:
            raise SimulationError(f"timer interval must be positive: {value}")
        self._interval = value
        if self._on_grid and self._event is not None and not self._stopped:
            # Re-anchor: the next tick is already scheduled; ticks after
            # it land on the new grid starting there.
            self._anchor = self._event.time
            self._ticks = 0

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if self._stopped:
            return
        if self._on_grid:
            self._ticks += 1
            self._event = self._sim.call_at(
                self._anchor + self._ticks * self._interval, self._fire)
        else:
            self._event = self._sim.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Cancel the timer; the callback will not fire again."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped
