"""Shared-channel contention across APs (multi-AP topologies).

A :class:`ContentionDomain` models one physical channel that several
:class:`~repro.wireless.link.WirelessLink` instances (different APs,
both directions) share. Unlike :class:`InterferenceModel` — which is a
*statistical* stand-in for stations the simulation does not carry — the
domain arbitrates airtime between links that really exist in the
topology: every transmitted AMPDU occupies the channel, and every other
member that wants a txop during that window defers until the channel
frees, then backs off.

The model is deliberately coarse (no per-slot CSMA, no capture effect):
defer-until-idle plus a uniform random backoff that grows with the
number of contending members, which is enough to reproduce the
first-order effect the paper's Fig. 17 measures — cross-AP traffic
consuming the victim AP's airtime. Single-AP topologies never create a
domain, so the legacy datapath is untouched.
"""

from __future__ import annotations

from repro.sim.random import DeterministicRandom

#: 802.11n/ac-ish timing constants.
SLOT_TIME = 9e-6
DIFS = 34e-6
#: Backoff window per contending member, in slots.
CW_SLOTS = 16


class ContentionDomain:
    """Airtime arbiter for wireless links sharing one channel."""

    def __init__(self, rng: DeterministicRandom):
        self.rng = rng
        self._members: list = []
        #: Time until which the channel is occupied by someone's AMPDU.
        self.busy_until = 0.0
        self.deferrals = 0

    def register(self, link) -> None:
        if link not in self._members:
            self._members.append(link)

    @property
    def members(self) -> int:
        return len(self._members)

    def access_delay(self, now: float) -> float:
        """Extra wait before a member's txop may start.

        Defer until the channel is idle, then DIFS plus a uniform
        backoff whose expected value scales with the number of *other*
        members — each is a station that may win the slot first.
        """
        wait = max(0.0, self.busy_until - now)
        if wait > 0.0:
            self.deferrals += 1
        contenders = max(1, self.members - 1)
        backoff = self.rng.uniform(0.0, CW_SLOTS * contenders)
        return wait + DIFS + backoff * SLOT_TIME

    def occupy(self, start: float, airtime: float) -> None:
        """Mark the channel busy for one member's transmission."""
        self.busy_until = max(self.busy_until, start + airtime)
