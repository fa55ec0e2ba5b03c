"""Which datapath a scenario's AP queue resolves to, per queue kind.

The plain-queue fast paths (burst drain, batch departure observers,
direct queue reads in ``predict``, inline enqueue) are gated on class
identity.
``fifo`` — the default of every scenario spec — used to be an empty
subclass of ``DropTailQueue`` and silently took the generic per-packet
path; these tests pin what every ``QUEUE_KINDS`` entry resolves to and
count the calls a real scenario makes.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ScenarioSpec, TraceSpec
from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.topology.builder import TopologyBuilder
from repro.topology.spec import QUEUE_KINDS
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink

#: kind -> does the AP downlink take the plain-queue fast paths?
FAST = {"droptail": True, "fifo": True, "codel": False, "fq_codel": False}


def _builder(queue_kind: str, duration: float = 2.0) -> TopologyBuilder:
    spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=duration,
                                                   seed=1),
                        protocol="rtp", cca="gcc", ap_mode="zhuge",
                        queue_kind=queue_kind, duration=duration, warmup=0.5)
    return TopologyBuilder(spec.to_config())


def test_every_queue_kind_has_an_expectation():
    assert set(FAST) == set(QUEUE_KINDS)


@pytest.mark.parametrize("kind", QUEUE_KINDS)
def test_queue_kind_resolution(kind):
    builder = _builder(kind)
    queue = builder.edges["down"].queue
    flow = builder._rtc[0].flow
    teller = builder.zhuge.in_band_updater(flow).fortune_teller
    fast = FAST[kind]
    # Burst drain (``dequeue_burst``'s direct-deque loop) and inline
    # enqueue (``WirelessLink.send``) both key on ``_plain``.
    assert queue._plain is fast
    # ``FortuneTeller.predict`` reads the queue's fields directly.
    assert teller._fast_predict is fast
    # Batch departure observers: every per-packet subscriber has one.
    assert queue.on_departure
    assert len(queue.on_departure_batch) == len(queue.on_departure)
    if fast:
        # Nothing else ``WirelessLink.send``'s inline enqueue checks.
        assert queue.trace is None and not queue.on_arrival


def test_fifo_scenario_makes_no_per_packet_queue_calls(monkeypatch):
    """2 s of the headline scenario (W1, rtp/gcc, Zhuge, fifo): the AP
    queue is drained by ``dequeue_burst`` alone, and the Fortune Teller
    takes every txop — one-packet ones included — as a burst."""
    calls = Counter()
    real_dequeue = DropTailQueue.dequeue
    real_observe = FortuneTeller.observe_departure

    def dequeue(self, now):
        calls["dequeue", self.name] += 1
        return real_dequeue(self, now)

    def observe_departure(self, packet, queue=None):
        calls["observe_departure"] += 1
        return real_observe(self, packet, queue)

    monkeypatch.setattr(DropTailQueue, "dequeue", dequeue)
    monkeypatch.setattr(FortuneTeller, "observe_departure",
                        observe_departure)
    builder = _builder("fifo")
    builder.run()
    down = builder.edges["down"]
    assert down.queue.stats.dequeued > 100
    assert calls["dequeue", "down"] == 0
    assert calls["observe_departure"] == 0


class _GenericQueue(DropTailQueue):
    """What ``FifoQueue`` used to be: an empty subclass, so every
    identity gate reads False and the generic paths run."""


def _trajectory(queue_cls, arrivals):
    """Bursty arrivals through teller + queue + wifi link; everything a
    scenario could observe of the four paths, in order."""
    sim = Simulator()
    queue = queue_cls(capacity_bytes=6_000, name="down")
    teller = FortuneTeller(sim, queue)
    trace = TraceSpec.constant(2e6, 10.0).build()
    link = WirelessLink(sim, WirelessChannel(trace), queue)
    flow = FiveTuple("s", "c", 1, 2, "udp")
    log = []
    link.deliver = lambda p: log.append(
        ("rx", sim.now, p.seq, p.enqueued_at, p.dequeued_at))
    queue.on_drop.append(lambda p, reason: log.append(("drop", p.seq)))

    def arrive(seq, size):
        fortune = teller.predict()
        log.append(("fortune", sim.now, fortune.q_long, fortune.q_short,
                    fortune.tx))
        link.send(Packet(flow, size, seq=seq))

    at = 0.0
    for seq, (gap, size) in enumerate(arrivals):
        at += gap
        sim.call_at(at, lambda seq=seq, size=size: arrive(seq, size))
    sim.run()
    estimators = (teller.tx_rate, teller.tx_rate_long,
                  teller.dequeue_intervals, teller.burst_tracker)
    return (log, queue.stats, link.txops, sim.events_processed,
            [e.ops for e in estimators])


@given(st.lists(st.tuples(
    # Mostly back-to-back (a frame's burst: the queue builds, AMPDUs
    # aggregate, the tail overflows), sometimes an idle gap longer
    # than the 40 ms estimator window.
    st.sampled_from([0.0] * 4 + [0.0005] * 4 + [0.003, 0.003, 0.02, 0.3]),
    st.integers(min_value=60, max_value=1500)), max_size=150))
@settings(max_examples=60, deadline=None)
def test_plain_paths_match_the_generic_paths(arrivals):
    """The alias moved every ``fifo`` scenario from the generic paths
    to the plain ones; the two must be indistinguishable: predictions,
    enqueue / dequeue stamps, deliveries, drops, estimator ``ops``."""
    plain = _trajectory(DropTailQueue, arrivals)
    assert plain == _trajectory(_GenericQueue, arrivals)
