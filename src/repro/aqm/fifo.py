"""Plain FIFO (drop-tail) queue — the paper's baseline discipline."""

from repro.net.queue import DropTailQueue

#: The same class object, not a subclass: the plain-queue fast paths are
#: gated on class identity, and ``fifo`` edges must take them.
FifoQueue = DropTailQueue
