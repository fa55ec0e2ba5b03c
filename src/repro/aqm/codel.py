"""CoDel (Controlled Delay) AQM, after Nichols & Jacobson (CACM 2012).

Head-drop variant: on dequeue, if the sojourn time of the head packet has
exceeded ``TARGET`` for at least ``INTERVAL``, the queue enters dropping
state and drops head packets at a rate increasing with the square root of
the drop count (the control-law schedule from the reference
implementation / RFC 8289).  The head drops are the queue's one
per-packet step (:meth:`CoDelQueue._pop_head`), so a burst drain pops
and drops exactly as repeated single dequeues would.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.packet import Packet
from repro.net.queue import AqmQueue

#: RFC 8289's defaults: acceptable standing sojourn time, and the
#: window it may be exceeded for before dropping starts.
TARGET = 0.005
INTERVAL = 0.100


class CoDelQueue(AqmQueue):
    """Byte-bounded queue with CoDel head dropping."""

    def __init__(self, capacity_bytes: int = 375_000, name: str = "codel"):
        super().__init__(capacity_bytes=capacity_bytes, name=name)
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0

    def _sojourn_ok(self, packet: Packet, now: float) -> bool:
        """True when the packet's sojourn time is below target."""
        if packet.enqueued_at is None:
            return True
        return (now - packet.enqueued_at) < TARGET

    def _should_enter_drop(self, now: float, packet: Packet) -> bool:
        """Track how long sojourn time has stayed above target."""
        if self._sojourn_ok(packet, now) or self._bytes_below_mtu():
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + INTERVAL
            return False
        return now >= self._first_above_time

    def _bytes_below_mtu(self) -> bool:
        return self.byte_length <= 1500

    def _control_law(self, t: float) -> float:
        return t + INTERVAL / math.sqrt(self._drop_count)

    def _pop_head(self, now: float) -> Optional[Packet]:
        pop = super()._pop_head
        packet = pop(now)
        if packet is None:
            self._dropping = False
            return None

        if self._dropping:
            if self._sojourn_ok(packet, now) or self._bytes_below_mtu():
                self._dropping = False
                self._first_above_time = 0.0
            else:
                while (self._dropping and now >= self._drop_next
                       and packet is not None):
                    self._drop(packet, "codel")
                    self._drop_count += 1
                    packet = pop(now)
                    if packet is None:
                        self._dropping = False
                        break
                    if self._sojourn_ok(packet, now) or self._bytes_below_mtu():
                        self._dropping = False
                    else:
                        self._drop_next = self._control_law(self._drop_next)
        elif self._should_enter_drop(now, packet):
            self._drop(packet, "codel")
            packet = pop(now)
            self._dropping = True
            # Start closer to the last drop rate if we re-enter quickly.
            delta = self._drop_count - self._last_drop_count
            if delta > 1 and now - self._drop_next < 16 * INTERVAL:
                self._drop_count = delta
            else:
                self._drop_count = 1
            self._drop_next = self._control_law(now)
            self._last_drop_count = self._drop_count
        return packet
