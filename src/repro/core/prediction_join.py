"""The prediction–truth join: one per Zhuge AP.

Fig. 19 and the AP's own safety rest on one join: the Fortune Teller's
``qLong + qShort + tx`` forecast for packet *p* at AP arrival against
*p*'s delivery over the air. The watchdog reads its staleness, open
count and pairs; the controller's queue-drop hook calls :meth:`drop`;
Fig. 19 and the trace auditor read the ``predicted`` / ``actual``
columns, filled only while ``record`` is set. An AP holds none until
something subscribes (``ZhugeAP.predictions is None``).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Callable, Optional

#: Open-map cap: beyond it the oldest entry is evicted. During a
#: blackout nothing is delivered, so the map would otherwise grow with
#: every downlink packet the sender keeps pushing.
MAX_OPEN_PREDICTIONS = 4096


class PredictionJoin:
    """Bounded ``pkt_id -> (noted_at, predicted)`` map plus joined pairs,
    appended in delivery order (``actual`` = delivery − noted_at)."""

    __slots__ = ("sim", "record", "predicted", "actual", "on_pair",
                 "evicted", "_open")

    def __init__(self, sim):
        self.sim = sim
        #: Keep every joined pair (``ZhugeAP.join_predictions(record=True)``).
        self.record = False
        self.predicted = array("d")
        self.actual = array("d")
        #: ``(predicted, actual)`` subscriber: the watchdog's error feed.
        self.on_pair: Optional[Callable[[float, float], None]] = None
        self.evicted = 0
        self._open: OrderedDict[int, tuple[float, float]] = OrderedDict()

    def note(self, pkt_id: int, predicted: float) -> None:
        """The AP predicted ``predicted`` seconds for packet ``pkt_id``."""
        opened = self._open
        if pkt_id in opened:
            del opened[pkt_id]
        elif len(opened) >= MAX_OPEN_PREDICTIONS:
            opened.popitem(last=False)
            self.evicted += 1
        opened[pkt_id] = (self.sim.now, predicted)

    def deliver(self, pkt_id: int) -> None:
        """Packet ``pkt_id`` made it over the air: join it."""
        entry = self._open.pop(pkt_id, None)
        if entry is None:
            return
        noted_at, predicted = entry
        actual = self.sim.now - noted_at
        if self.record:
            self.predicted.append(predicted)
            self.actual.append(actual)
        if self.on_pair is not None:
            self.on_pair(predicted, actual)

    def drop(self, pkt_id: int) -> None:
        """Packet ``pkt_id`` will never fly: its prediction can neither
        join nor legitimately age into staleness."""
        self._open.pop(pkt_id, None)

    def reset(self) -> None:
        """Forget every open prediction (the estimators were wiped)."""
        self._open.clear()

    def __len__(self) -> int:
        """Open predictions (idle APs hold none)."""
        return len(self._open)

    @property
    def oldest_noted_at(self) -> Optional[float]:
        """When the oldest open prediction was noted (``None`` if none)."""
        for noted_at, _ in self._open.values():
            return noted_at
        return None
