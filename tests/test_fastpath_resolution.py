"""Every queue kind drains a scenario's AP queue as bursts.

``fifo`` — the default of every scenario spec — used to be an empty
subclass of ``DropTailQueue`` and silently missed the class-identity
gated fast paths; later the AQM kinds reached the Fortune Teller one
packet at a time.  Today there is one path for every kind: the link
drains a txop with ``dequeue_burst`` and the teller sees each txop as
one burst.  These tests count the calls a real scenario makes.
"""

from collections import Counter

import pytest

from repro.campaign import ScenarioSpec, TraceSpec
from repro.core.fortune_teller import FortuneTeller
from repro.net.queue import DropTailQueue
from repro.topology.builder import TopologyBuilder
from repro.topology.spec import QUEUE_KINDS

pytestmark = pytest.mark.bitexact


def _builder(queue_kind: str, duration: float = 2.0) -> TopologyBuilder:
    spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=duration,
                                                   seed=1),
                        protocol="rtp", cca="gcc", ap_mode="zhuge",
                        queue_kind=queue_kind, duration=duration, warmup=0.5)
    return TopologyBuilder(spec)


def _run_counting(monkeypatch, kind: str):
    """2 s of the headline scenario (W1, rtp/gcc, Zhuge) on ``kind``:
    the builder, and per teller the departure calls it received."""
    calls = Counter()
    real_observe = FortuneTeller.observe_departure

    def observe_departure(self, packets, queue=None):
        calls[id(self)] += 1
        return real_observe(self, packets, queue)

    monkeypatch.setattr(FortuneTeller, "observe_departure",
                        observe_departure)
    builder = _builder(kind)
    builder.run()
    return builder, calls


@pytest.mark.parametrize("kind", QUEUE_KINDS)
def test_queue_kind_resolution(kind, monkeypatch):
    """Each teller's departure method runs at most once per txop (the
    whole AMPDU is one burst), and does run."""
    builder, calls = _run_counting(monkeypatch, kind)
    down = builder.edges["down"]
    flow = builder.forwarding.rtc[0].flow
    teller = builder.zhuge.in_band_updater(flow).fortune_teller
    assert down.queue.stats.dequeued > 100
    assert 0 < calls[id(teller)] <= down.link.txops
    assert all(count <= down.link.txops for count in calls.values())


def test_fifo_scenario_makes_no_per_packet_queue_calls(monkeypatch):
    """On ``fifo`` the AP queue is drained by ``dequeue_burst`` alone."""
    calls = Counter()
    real_dequeue = DropTailQueue.dequeue

    def dequeue(self, now):
        calls[self.name] += 1
        return real_dequeue(self, now)

    monkeypatch.setattr(DropTailQueue, "dequeue", dequeue)
    builder = _builder("fifo")
    builder.run()
    assert builder.edges["down"].queue.stats.dequeued > 100
    assert calls["down"] == 0
