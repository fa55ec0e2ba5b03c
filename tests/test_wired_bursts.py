"""Wired-link bursts against the per-packet event chain.

``WiredLink`` extends one ``TimedRun`` per link with ``[packet]``: a
send joins the pending arrival burst at its instant when that burst
took the last seq the simulator issued, and the run releases each burst
as it dispatches it.  The oracle is ``ClassicWiredLink`` (one event per
hop, ``tests/reference_links.py``), driven by random schedules on the
three link kinds — a delay line with delay 0, one with delay > 0, a
rate-limited link — with sends, batches, same-instant zero-delay
events, ``call_at`` events, pushes onto a foreign run and re-entrant
sends from inside delivery.  Each of the two join checks is dropped in
a seeded mutant ``extend`` that the oracle must catch.

Also pinned: one ``send_batch`` on a delay line is one dispatch, and a
busy run does not keep the AMPDUs it already dispatched.
"""

import random
import weakref

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.campaign import TraceSpec
from repro.net.link import WiredLink
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import SimulationError, Simulator, TimedRun
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink
from tests.reference_links import ClassicWiredLink

pytestmark = pytest.mark.bitexact

#: Dyadic tick: sums of ticks are exact, so instants tie on purpose.
TICK = 1 / 1024
SIZE = 1000
FLOW = FiveTuple("s", "c", 1, 2, "udp")
#: ``(rate_bps, delay)``: delay line at 0, delay line at 3 ticks, and a
#: link serialising one packet per 1 ms with 0.7 ms of propagation.
#: The analytic server orders some exact ties differently from the
#: per-packet chain, bursts or not (DESIGN.md §13), so nothing may tie
#: the rate-limited link's instants: they stay off the tick grid, its
#: deliveries do not react, and its delay below its serialisation time
#: keeps its arrivals from tying ahead of its own dequeues.
LINKS = ((None, 0.0), (None, 3 * TICK), (SIZE * 8 / 0.001, 0.0007))

_link = st.integers(0, len(LINKS) - 1)
OPS = st.one_of(
    st.tuples(st.just("send"), _link, st.integers(1, 3)),
    st.tuples(st.just("batch"), _link, st.integers(0, 4)),
    st.tuples(st.just("zero")),
    st.tuples(st.just("at"), st.integers(0, 4)),
    st.tuples(st.just("push"), st.integers(0, 4)),
)
PROGRAMS = st.fixed_dictionaries({
    # (tick, ops) top-level steps, scheduled in list order.
    "steps": st.lists(st.tuples(st.integers(0, 6),
                                st.lists(OPS, max_size=5)), max_size=6),
    # What delivering a top-level packet off a delay line does (packet
    # id mod length).
    "reactions": st.lists(st.lists(OPS, max_size=3), min_size=1,
                          max_size=4),
    # Per link: wire ``deliver_batch`` too (macro side only).
    "batch_receivers": st.tuples(*(st.booleans() for _ in LINKS)),
})


def _trajectory(link_cls, program):
    """Deliveries and foreign callbacks in firing order, or the name of
    the exception the run raised."""
    sim = Simulator()
    log = []
    foreign = sim.timed_run(lambda tag: log.append(("run", sim.now, tag)))
    links = [link_cls(sim, rate, delay, name=f"l{index}")
             for index, (rate, delay) in enumerate(LINKS)]
    for link in links:
        link.queue.capacity_bytes = 4 * SIZE
    reactions = program["reactions"]
    state = {"packets": 0, "tags": 0, "last_push": 0.0}
    reacting = set()

    def packet(top_level):
        pkt_id = state["packets"]
        state["packets"] += 1
        if top_level:
            reacting.add(pkt_id)
        return Packet(FLOW, SIZE, seq=pkt_id, pkt_id=pkt_id)

    def tag():
        state["tags"] += 1
        return state["tags"]

    def perform(ops, top_level):
        for op in ops:
            kind = op[0]
            if kind == "send":
                for _ in range(op[2]):
                    links[op[1]].send(packet(top_level))
            elif kind == "batch":
                links[op[1]].send_batch(
                    [packet(top_level) for _ in range(op[2])])
            elif kind == "zero":
                t = tag()
                sim.schedule(0.0, lambda t=t: log.append(("zero", sim.now, t)))
            elif kind == "at":
                t = tag()
                sim.call_at(sim.now + op[1] * TICK,
                            lambda t=t: log.append(("at", sim.now, t)))
            else:
                at = max(state["last_push"], sim.now + op[1] * TICK)
                state["last_push"] = at
                foreign.push(at, tag())

    def receiver(index):
        def deliver(pkt):
            log.append(("rx", sim.now, pkt.pkt_id, index))
            if pkt.pkt_id in reacting and LINKS[index][0] is None:
                perform(reactions[pkt.pkt_id % len(reactions)], False)
        return deliver

    for index, link in enumerate(links):
        link.deliver = deliver = receiver(index)
        if link_cls is WiredLink and program["batch_receivers"][index]:
            link.deliver_batch = lambda packets, deliver=deliver: [
                deliver(pkt) for pkt in packets]
    for tick, ops in program["steps"]:
        sim.call_at(tick * TICK, lambda ops=ops: perform(ops, True))
    try:
        sim.run()
    except (TypeError, SimulationError) as exc:  # a mutant's corruption
        return type(exc).__name__
    return log


def _mutant_extend(dropped: str):
    """``TimedRun.extend`` without one of its two join checks."""

    def extend(self, time, items):
        times = self._times
        joins = bool(times) and time == times[-1]
        if joins:
            checks = {"pending": len(times) > self._head,
                      "last seq": self._seqs[-1] == self._sim._seq - 1}
            del checks[dropped]
            joins = all(checks.values())
        if joins:
            self._payloads[-1] += items
        else:
            self.push(time, items)

    return extend


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS)
def test_bursts_match_the_per_packet_chain(program):
    assert _trajectory(WiredLink, program) \
        == _trajectory(ClassicWiredLink, program)


@pytest.mark.parametrize("dropped", ("last seq", "pending"))
def test_oracle_catches_a_mutant_join(dropped, monkeypatch):
    """Coalescing on equal time alone reorders a burst around what was
    scheduled between its parts; joining a burst that is already being
    delivered corrupts it.  The oracle finds both."""
    monkeypatch.setattr(TimedRun, "extend", _mutant_extend(dropped))
    # Any counterexample will do: generate only (no shrinking, no
    # explain phase).
    find(PROGRAMS,
         lambda program: _trajectory(WiredLink, program)
         != _trajectory(ClassicWiredLink, program),
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]),
         random=random.Random(28))


@pytest.mark.parametrize("delay", (0.0, 0.01))
@pytest.mark.parametrize("batch_receiver", (False, True))
def test_send_batch_on_a_delay_line_is_one_dispatch(delay, batch_receiver):
    sim = Simulator()
    link = WiredLink(sim, None, delay)
    got, calls = [], []
    link.deliver = got.append
    if batch_receiver:
        link.deliver_batch = lambda packets: (calls.append(len(packets)),
                                              got.extend(packets))
    packets = [Packet(FLOW, 100, seq=i) for i in range(8)]
    link.send_batch(packets)
    link.send_batch([])
    sim.run()
    assert sim.events_processed == 1
    assert got == packets and sim.packets_processed == 8
    assert calls == ([8] if batch_receiver else [])
    assert all(p.received_at == delay for p in packets)


def test_sends_split_around_a_same_instant_event():
    """Two sends join; an event scheduled between them splits the
    burst, and the event fires between the halves."""
    sim = Simulator()
    link = WiredLink(sim, None, 0.0)
    log = []
    link.deliver = lambda p: log.append(p.seq)
    send = link.send
    send(Packet(FLOW, 100, seq=0))
    send(Packet(FLOW, 100, seq=1))
    sim.schedule(0.0, lambda: log.append("event"))
    send(Packet(FLOW, 100, seq=2))
    sim.run()
    assert log == [0, 1, "event", 2]
    assert sim.events_processed == 3


class _Ampdu(list):
    """An AMPDU that takes weak references (a ``list`` does not)."""


def test_dispatched_ampdu_is_released_while_its_runs_stay_busy():
    """Propagation (20 ms) outlasts airtime (~3 ms), so neither AMPDU
    run drains; every AMPDU already delivered must still be freed."""
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=10_000_000)
    link = WirelessLink(sim, WirelessChannel(
        TraceSpec.constant(50e6, 10.0).build()), queue,
        propagation_delay=0.02)
    refs = []
    drain = queue.dequeue_burst

    def dequeue_burst(*args):
        ampdu = _Ampdu(drain(*args))
        refs.append(weakref.ref(ampdu))
        return ampdu

    queue.dequeue_burst = dequeue_burst
    delivered = []
    link.deliver_batch = lambda packets: delivered.append(len(packets))
    for i in range(2000):
        link.send(Packet(FLOW, 1200, seq=i))
    sim.run(until=0.05)
    assert link._finish_run.pending() and link._arrive_run.pending()
    assert 0 < len(delivered) < len(refs)
    assert all(ref() is None for ref in refs[:len(delivered)])
    assert all(ref() is not None for ref in refs[len(delivered):])
