"""The burst-shaped AP datapath == the per-packet one it replaced.

``tests/reference_datapath.py`` keeps the earlier queue, Fortune Teller
and wireless-link bodies: the AQM kinds popped, counted and observed
one packet at a time, the drop-tail class took identity-gated fast
paths, and the link delivered packet by packet whenever a fault
predicate or a trace probe was set.  Today every kind drains as a burst
and the link hands each AMPDU's survivors to one list receiver.  The
same bursty arrivals through teller + queue + link must give the same
predictions, stamps, deliveries, drops, txops, trace events and
estimator ``ops`` on both.  The reference link kicks an idle server with
a ``schedule(0.0)`` event; the live one posts the kick, which runs in
place when nothing older is pending.  The reference link also ends
every txop in a ``_finish`` dispatch; the live one plants a finish only
when a packet waits for the air.  So the engine events must match once
each side's scheduled ``_serve_txop`` events, and the reference's
finishes the live link planted none for, are taken out.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm import CoDelQueue, FqCoDelQueue
from repro.campaign import TraceSpec
from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.obs.bus import TraceBus
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink
from tests.reference_datapath import (ReferenceCoDelQueue,
                                      ReferenceDropTailQueue,
                                      ReferenceFortuneTeller,
                                      ReferenceFqCoDelQueue,
                                      ReferenceWirelessLink)

pytestmark = pytest.mark.bitexact

#: kind -> (queue class, its reference, arguments).  CoDel runs at a
#: 2 ms target over 20 ms and the link aggregates at most 4 packets, so
#: a backlog survives each txop and a schedule of a few hundred
#: milliseconds goes through CoDel's dropping state as well as the tail.
KINDS = {"fifo": (DropTailQueue, ReferenceDropTailQueue),
         "codel": (CoDelQueue, ReferenceCoDelQueue),
         "fq_codel": (FqCoDelQueue, ReferenceFqCoDelQueue)}
FLOWS = [FiveTuple("s", "c", 1, 2, "udp"), FiveTuple("s", "c", 3, 4, "udp")]


class _KickCountingSimulator(Simulator):
    """Counts the ``_serve_txop`` events scheduled (kicks)."""

    kicks = 0

    def schedule(self, delay, callback):
        if getattr(callback, "__name__", None) == "_serve_txop":
            self.kicks += 1
        return super().schedule(delay, callback)


class _IdleCountingLink(ReferenceWirelessLink):
    """Counts the ``_finish`` dispatches the live link does without:
    those that found the queue empty and only marked the link idle, and
    those of a txop that left the queue empty when no packet arrived
    before its end.  A packet arriving exactly at that end meets a
    finish here; the live link planted none, so its send finds the end
    passed and kicks the idle server instead."""

    idle_finishes = 0
    #: The txop on the air left the queue empty, and no packet has
    #: arrived before its end (the live link has no finish planted).
    _unplanted = False

    def send(self, packet) -> None:
        enqueued = self.queue.stats.enqueued
        super().send(packet)
        if (self._unplanted and self.queue.stats.enqueued > enqueued
                and self.sim.now < self._finish_run._times[-1]):
            self._unplanted = False     # the live send plants the finish

    def _transmit_ampdu(self) -> None:
        txops = self.txops
        super()._transmit_ampdu()
        if self.txops > txops and self.queue.is_empty:
            self._unplanted = True

    def _finish(self, ampdu) -> None:
        unplanted, self._unplanted = self._unplanted, False
        super()._finish(ampdu)
        if unplanted or not self._serving:
            self.idle_finishes += 1


def _trajectory(reference: bool, kind: str, arrivals, rate_bps: float,
                traced: bool, faulty: bool, observer: bool, bursts):
    """Everything a scenario could observe of one run, in order."""
    sim = _KickCountingSimulator()
    queue_cls, reference_cls = KINDS[kind]
    queue = (reference_cls if reference else queue_cls)(
        capacity_bytes=12_000, name="down")
    teller_cls = ReferenceFortuneTeller if reference else FortuneTeller
    # The shared teller and a flow's own (§4.1 on fq_codel).
    tellers = [teller_cls(sim, queue), teller_cls(sim, queue, flow=FLOWS[0])]
    for teller in tellers:
        teller.burst_tracker.window = bursts
    link_cls = _IdleCountingLink if reference else WirelessLink
    trace = TraceSpec.constant(rate_bps, 10.0).build()
    link = link_cls(sim, WirelessChannel(trace), queue, max_ampdu_packets=4)
    log, drops, departures, events = [], [], [], []

    def receive(packets):
        for p in packets:
            log.append(("rx", sim.now, p.seq, p.enqueued_at, p.dequeued_at,
                        p.received_at))

    if reference:
        link.deliver = lambda packet: receive([packet])
    link.deliver_batch = receive
    queue.on_drop.append(
        lambda p, reason: drops.append((sim.now, p.seq, reason)))
    if observer:
        # A subscriber without a burst form sent the reference queue
        # down its per-packet observer branch.
        if reference:
            queue.on_departure.append(
                lambda p, q: departures.append((p.seq, p.dequeued_at)))
        else:
            queue.on_departure.append(lambda burst, q: departures.extend(
                (p.seq, p.dequeued_at) for p in burst))
    if traced:
        bus = TraceBus(sim)
        events = bus.events
        queue.trace = link.trace = bus
    if faulty:
        rng = DeterministicRandom(5)
        link.fault_drop = lambda packet: rng.random() < 0.25

    def arrive(seq, size, flow):
        for teller in tellers:
            fortune = teller.predict()
            log.append(("fortune", sim.now, fortune.q_long, fortune.q_short,
                        fortune.tx))
        link.send(Packet(FLOWS[flow], size, seq=seq, pkt_id=seq))

    at = 0.0
    for seq, (gap, size, flow) in enumerate(arrivals):
        at += gap
        sim.call_at(at, lambda seq=seq, size=size, flow=flow:
                    arrive(seq, size, flow))
    sim.run()
    return (log, drops, departures, events, queue.stats, link.txops,
            link.fault_dropped,
            sim.events_processed - sim.kicks
            - getattr(link, "idle_finishes", 0),
            [[e.ops for e in (t.tx_rate, t.tx_rate_long,
                              t.dequeue_intervals, t.burst_tracker)]
             for t in tellers])


@given(st.lists(st.tuples(
    # Mostly back-to-back (a frame's burst: the queue builds, AMPDUs
    # aggregate, the tail overflows, CoDel drops), sometimes an idle
    # gap longer than the 40 ms estimator window.
    st.sampled_from([0.0] * 4 + [0.0005] * 4 + [0.003, 0.003, 0.02, 0.3]),
    st.integers(min_value=60, max_value=1500),
    st.integers(min_value=0, max_value=1)), max_size=150),
    st.sampled_from(sorted(KINDS)),
    st.sampled_from([2e6, 50e6]),
    st.booleans(), st.booleans(), st.booleans(),
    # The burst tracker's window: the default; zero, which retires
    # every burst right after its head packet; and 3 ms, where bursts
    # kept open across txops go stale.
    st.sampled_from([1.0, 0.0, 0.003]))
@settings(max_examples=300, deadline=None)
def test_burst_datapath_matches_the_per_packet_one(
        arrivals, kind, rate_bps, traced, faulty, observer, bursts):
    args = (kind, arrivals, rate_bps, traced, faulty, observer, bursts)
    assert _trajectory(False, *args) == _trajectory(True, *args)
