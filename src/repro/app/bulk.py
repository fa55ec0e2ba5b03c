"""Bulk-transfer applications (competitors and interferers).

``BulkSenderApp`` is an always-backlogged TCP flow (the CUBIC
competitors of §7.4). ``PeriodicBulkApp`` toggles the transfer on and
off on a period — the ``scp`` scenario of §7.5 (30 s on / 30 s off).
"""

from __future__ import annotations

from repro.sim.engine import Simulator, Timer
from repro.transport.tcp import TcpSender


class BulkSenderApp:
    """Keeps a TcpSender permanently backlogged."""

    def __init__(self, sim: Simulator, sender: TcpSender):
        self.sim = sim
        self.sender = sender
        sender.unlimited = True
        # Kick off transmission.
        sim.schedule(0.0, sender._try_send)

    def stop(self) -> None:
        self.sender.unlimited = False


class PeriodicBulkApp:
    """Bulk flow toggled every ``period`` seconds (scp on/off)."""

    def __init__(self, sim: Simulator, sender: TcpSender,
                 period: float = 30.0):
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self.sim = sim
        self.sender = sender
        self.active = True
        sender.unlimited = True
        sim.schedule(0.0, sender._try_send)
        self._timer = Timer(sim, period, self._toggle)

    def _toggle(self) -> None:
        self.active = not self.active
        self.sender.unlimited = self.active
        if self.active:
            self.sender._try_send()

    def stop(self) -> None:
        self._timer.stop()
        self.sender.unlimited = False
