"""One-shot deadline timer for retransmission timeouts (DESIGN.md §9)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Event, Simulator


class DeadlineTimer:
    """Calls ``callback()`` once, at the latest deadline :meth:`set`.

    A sender restarts its RTO on every ACK and every segment, yet it
    almost never fires, so a restart here is one float store instead of
    a cancelled and a freshly scheduled event.  One wake-up stays
    planted at the earliest deadline seen since it was planted; waking
    before the current deadline, it re-plants itself there through
    ``call_at`` with the very float the restart computed — the callback
    runs at exactly the instant a cancel-and-reschedule timer would
    run it (only the event's tie-break ``seq`` is later).
    """

    __slots__ = ("_sim", "_callback", "_deadline", "_wake")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._deadline = 0.0
        self._wake: Optional[Event] = None

    def set(self, deadline: float) -> None:
        """(Re)start the timer to fire at absolute time ``deadline``."""
        self._deadline = deadline
        wake = self._wake
        if wake is None or deadline < wake.time:
            if wake is not None:
                wake.cancel()
            self._wake = self._sim.call_at(deadline, self._on_wake)

    def clear(self) -> None:
        """Stop the timer; nothing stays scheduled."""
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None

    def _on_wake(self) -> None:
        if self._deadline > self._sim.now:
            self._wake = self._sim.call_at(self._deadline, self._on_wake)
        else:
            self._wake = None
            self._callback()
