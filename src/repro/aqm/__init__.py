"""Active queue management disciplines.

All disciplines expose the :class:`~repro.net.queue.DropTailQueue`
interface so links and the Zhuge Fortune Teller can observe them
uniformly. ``FifoQueue`` is another name for ``DropTailQueue`` itself
(no subclass, so ``fifo`` edges take the plain-queue fast paths);
``CoDelQueue`` implements head-dropping CoDel; ``FqCoDelQueue`` isolates
flows by five-tuple with deficit round-robin and a per-flow CoDel state.
"""

from repro.aqm.fifo import FifoQueue
from repro.aqm.codel import CoDelQueue
from repro.aqm.fq_codel import FqCoDelQueue

__all__ = ["FifoQueue", "CoDelQueue", "FqCoDelQueue", "make_queue"]


def make_queue(kind: str, capacity_bytes: int = 375_000, name: str = "q"):
    """Factory used by scenario builders. ``kind`` in {droptail, fifo,
    codel, fq_codel}; the first two name the one plain drop-tail class."""
    kinds = {
        "droptail": FifoQueue,
        "fifo": FifoQueue,
        "codel": CoDelQueue,
        "fq_codel": FqCoDelQueue,
    }
    if kind not in kinds:
        raise ValueError(f"unknown queue kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind](capacity_bytes=capacity_bytes, name=name)
