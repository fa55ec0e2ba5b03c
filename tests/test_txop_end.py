"""The analytic txop end against the link that dispatched every end.

``WirelessLink`` pushes an AMPDU's arrival at transmit and plants a
finish at the txop's end only while a packet waits for the air; a txop
that ends with an empty queue leaves its end recorded, and the next
send (or ``unblock``) resolves it.  ``TxopFinishWirelessLink``
(``tests/reference_links.py``) is the link before that change: every
txop ended in a ``_finish`` dispatch that pushed the arrival and
granted the next txop.

Random schedules drive one link, or two links in one
``ContentionDomain``, through sends while an AMPDU is on the air, sends
and unblocks landing exactly at a txop's end, block/unblock windows, a
``fault_drop`` predicate, an ``InterferenceModel`` and a CoDel queue.
Both links must deliver and drop the same packets at the same instants,
run the same txops, leave the domain and every RNG in the same state,
and the analytic link must never take more dispatches.  Two seeded
mutants must be caught: an in-air send that plants no finish, and a
passed end that leaves the link marked as serving.
"""

import random

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.aqm import CoDelQueue
from repro.campaign import TraceSpec
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.wireless.channel import WirelessChannel
from repro.wireless.contention import ContentionDomain
from repro.wireless.interference import InterferenceModel
from repro.wireless.link import WirelessLink
from tests.reference_links import TxopFinishWirelessLink

FLOW = FiveTuple("s", "c", 1, 2, "udp")

_link = st.integers(0, 1)      # modulo the links built
STEPS = st.lists(st.tuples(
    # Gap after the previous step: back to back, inside one txop's
    # airtime (~0.5-6 ms), or long enough for the link to go idle.
    st.sampled_from([0.0, 0.0, 0.0002, 0.0005, 0.001, 0.003, 0.02]),
    st.one_of(
        # ``True``: at the end of the link's latest txop when that is
        # still ahead (exactly the float the link computes), else now.
        st.tuples(st.just("send"), _link, st.integers(60, 1500),
                  st.booleans()),
        st.tuples(st.just("unblock"), _link, st.booleans()),
        st.tuples(st.just("block"), _link))),
    min_size=1, max_size=60)
SCHEDULES = st.fixed_dictionaries({
    "steps": STEPS,
    "links": st.integers(1, 2),     # two share one ContentionDomain
    "rate_bps": st.sampled_from([2e6, 20e6, 50e6]),
    "propagation_delay": st.sampled_from([0.0, 0.002]),
    "interferers": st.sampled_from([0, 0, 2]),
    "codel": st.booleans(),
    "faulty": st.booleans(),
})


class _Ends:
    """Trace probe that records each txop's end as the link computes it."""

    def __init__(self, sim):
        self.sim = sim
        self.end = None

    def link_rate(self, link, rate):
        pass

    def link_txop(self, link, packets, size, airtime, rate):
        self.end = self.sim._now + airtime

    def link_delivery(self, link, packet):
        pass


def _trajectory(link_cls, schedule):
    """What a scenario could observe of one run, and its dispatches."""
    sim = Simulator()
    rngs = []
    domain = None
    if schedule["links"] == 2:
        domain = ContentionDomain(DeterministicRandom(11))
        rngs.append(domain.rng)
    delivered, dropped, links, ends = [], [], [], []
    for index in range(schedule["links"]):
        if schedule["codel"]:
            queue = CoDelQueue(capacity_bytes=8_000, target=0.002,
                               interval=0.02)
        else:
            queue = DropTailQueue(capacity_bytes=8_000)
        queue.on_drop.append(lambda p, reason, index=index: dropped.append(
            (index, sim.now, p.seq, reason)))
        interference = None
        if schedule["interferers"]:
            interference = InterferenceModel(DeterministicRandom(20 + index),
                                             schedule["interferers"])
            rngs.append(interference.rng)
        link = link_cls(sim, WirelessChannel(TraceSpec.constant(
            schedule["rate_bps"], 10.0).build()), queue,
            interference=interference, max_ampdu_packets=4,
            propagation_delay=schedule["propagation_delay"], domain=domain)
        link.deliver_batch = lambda packets, index=index: delivered.extend(
            (index, sim.now, p.seq) for p in packets)
        link.trace = _Ends(sim)
        ends.append(link.trace)
        if schedule["faulty"]:
            rng = DeterministicRandom(30 + index)
            rngs.append(rng)
            link.fault_drop = lambda packet, rng=rng: rng.random() < 0.25
        links.append(link)

    steps = schedule["steps"]

    def at_end(index, action):
        end = ends[index].end
        if end is not None and end >= sim.now:
            sim.call_at(end, action)
        else:
            action()

    def step(i):
        _, act = steps[i]
        index = act[1] % len(links)
        link = links[index]
        if act[0] == "block":
            link.block()
        else:
            action = (link.unblock if act[0] == "unblock" else
                      lambda: link.send(Packet(FLOW, act[2], seq=i)))
            if act[-1]:
                at_end(index, action)
            else:
                action()
        if i + 1 < len(steps):
            sim.schedule(steps[i + 1][0], lambda: step(i + 1))

    sim.schedule(steps[0][0], lambda: step(0))
    sim.run(until=5.0)
    for link in links:          # drain what a block left queued
        link.unblock()
    sim.run()
    observed = (delivered, dropped,
                [(link.txops, link.packets_sent, link.fault_dropped,
                  link.queue.stats.enqueued) for link in links],
                (domain.busy_until, domain.deferrals) if domain else None,
                [rng._rng.getstate() for rng in rngs], sim.now)
    return observed, sim.events_processed


def _matches(schedule, link_cls=WirelessLink):
    new, new_dispatches = _trajectory(link_cls, schedule)
    ref, ref_dispatches = _trajectory(TxopFinishWirelessLink, schedule)
    return new == ref and new_dispatches <= ref_dispatches


def _mutant(defect: str) -> type:
    """A ``WirelessLink`` whose end resolution has one defect:
    ``"plant"`` plants no finish for an in-air send, ``"idle"`` leaves
    ``_serving`` set once the end has passed."""

    def resolve(self):
        end = self._air_end
        self._air_end = None
        if end > self.sim._now:
            if defect != "plant":
                self._finish_run.push(end, None)
        elif defect != "idle":
            self._serving = False

    return type(f"Mutant{defect.title()}", (WirelessLink,),
                {"_resolve_air_end": resolve})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SCHEDULES)
def test_analytic_end_matches_a_finish_per_txop(schedule):
    assert _matches(schedule)


@pytest.mark.parametrize("defect", ("plant", "idle"))
def test_oracle_catches_a_mutant_end(defect):
    """A packet sent while the AMPDU is on the air waits for a send
    after the end, or a link that never learns it went idle serves
    nothing again: either way the deliveries change.  The oracle finds
    both."""
    mutant = _mutant(defect)
    # Any counterexample will do: generate only (no shrinking, no
    # explain phase).
    find(SCHEDULES, lambda schedule: not _matches(schedule, mutant),
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]),
         random=random.Random(38))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SCHEDULES)
def test_the_mutant_harness_passes_without_a_defect(schedule):
    """The mutants differ from the link in their defect only."""
    assert _matches(schedule, _mutant("none"))
