"""Oracle for the engine's periodic timer: one scheduled event per tick.

The ``Timer`` below is the body ``repro.sim.engine.Timer`` had before
timers that re-plant at one instant came to share a heap entry (a tick
group), less the unused absolute-grid mode both dropped.  Every tick
is an :class:`Event` of its own, re-planted through ``schedule`` after
the callback returns, so each tick takes one seq and is one dispatch.

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

    Each tick lands at ``now + interval`` of the one before.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None],
                 first_delay: Optional[float] = None):
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive: {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._stopped = False
        delay = interval if first_delay is None else first_delay
        self._event = sim.schedule(delay, self._fire)

    @property
    def interval(self) -> float:
        return self._interval

    @interval.setter
    def interval(self, value: float) -> None:
        if value <= 0:
            raise SimulationError(f"timer interval must be positive: {value}")
        self._interval = value

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
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
