"""Modulation and coding scheme (MCS) model.

802.11 devices adapt the PHY rate to channel quality by switching MCS
index. The testbed experiment ``mcs`` of the paper (§7.5) forces random
MCS changes every 30 s with ``iw``; :class:`McsController` reproduces
that behaviour, and the link caps its service rate at the current MCS
PHY rate.
"""

from __future__ import annotations

from repro.sim.engine import Simulator, Timer
from repro.sim.random import DeterministicRandom

# 802.11n single-stream, 20 MHz, long guard interval (bps).
MCS_TABLE_80211N: tuple[float, ...] = (
    6.5e6, 13e6, 19.5e6, 26e6, 39e6, 52e6, 58.5e6, 65e6,
)


class McsController:
    """Holds the current MCS index (the top rung at first); optionally
    re-picks it periodically."""

    def __init__(self):
        self._index = len(MCS_TABLE_80211N) - 1
        self._timer: Timer | None = None

    @property
    def index(self) -> int:
        return self._index

    @index.setter
    def index(self, value: int) -> None:
        if not 0 <= value < len(MCS_TABLE_80211N):
            raise ValueError(f"MCS index {value} out of range")
        self._index = value

    @property
    def phy_rate_bps(self) -> float:
        return MCS_TABLE_80211N[self._index]

    def start_random_switching(self, sim: Simulator, period: float,
                               rng: DeterministicRandom,
                               min_index: int = 1) -> None:
        """Re-pick a random MCS every ``period`` seconds (the `mcs` scenario).

        ``min_index`` avoids the lowest rung so the link never fully
        starves (matching a testbed that keeps association alive).
        """
        if self._timer is not None:
            self._timer.stop()

        def switch() -> None:
            self._index = rng.randint(min_index, len(MCS_TABLE_80211N) - 1)

        self._timer = Timer(sim, period, switch, first_delay=period)

    def stop_switching(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
