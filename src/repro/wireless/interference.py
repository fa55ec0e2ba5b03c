"""Channel-contention model for co-channel interferers.

Interferers (paper §7.4) are bulk-transfer stations on *other* APs
sharing the channel. They do not share our AP's queue; they steal
airtime. We model CSMA/CA contention at the txop level: before each
transmission opportunity the AP waits a random access delay whose mean
grows with the number of active interferers, and the long-run airtime
share shrinks accordingly.
"""

from __future__ import annotations

from repro.sim.random import DeterministicRandom
from repro.wireless.contention import DIFS, SLOT_TIME

#: Mean backoff before a txop, in slots (drawn uniformly from twice it).
BASE_BACKOFF_SLOTS = 8.0
#: Per-interferer weight of the chance that another station holds the
#: channel when our txop is due.
PER_INTERFERER_BUSY = 0.0018


class InterferenceModel:
    """Per-txop access delay and airtime share under contention."""

    def __init__(self, rng: DeterministicRandom, interferers: int = 0):
        if interferers < 0:
            raise ValueError(f"interferers must be non-negative: {interferers}")
        self.rng = rng
        self.interferers = interferers

    @property
    def airtime_share(self) -> float:
        """Long-run fraction of airtime our AP wins (1 / (1 + n))."""
        return 1.0 / (1.0 + self.interferers)

    def access_delay(self) -> float:
        """Random channel-access wait before one txop.

        DIFS + random backoff, plus — with probability growing in the
        number of interferers — a busy period while another station
        holds the channel (its frame duration, exponentially
        distributed around a typical AMPDU airtime).
        """
        backoff_slots = self.rng.uniform(0.0, 2.0 * BASE_BACKOFF_SLOTS)
        delay = DIFS + backoff_slots * SLOT_TIME
        busy_probability = min(0.9, PER_INTERFERER_BUSY * self.interferers * 100)
        while self.rng.random() < busy_probability:
            delay += self.rng.expovariate(1.0 / 0.002)
            busy_probability *= 0.5
        return delay
