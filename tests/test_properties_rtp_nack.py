"""NACK wake-up vs the always-on NACK timer (tests/reference_rtp.py).

``RtpReceiver`` plants its NACK tick only while a gap is open, on the
accumulated ``t + NACK_DELAY`` grid the old ``Timer`` ticked on.  Every
schedule below is replayed against the ``Timer``-driven receiver: the
same NACKs at the same instants, the same TWCC feedback and the same
``_missing`` after every step.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import FiveTuple, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.transport.rtp import NACK_DELAY, NACK_RETRIES, RtpReceiver
from tests.reference_rtp import ReferenceRtpReceiver

pytestmark = pytest.mark.bitexact

FLOW = FiveTuple("s", "c", 1, 2, "udp")


class _Side:
    """One receiver with every packet it transmits logged."""

    def __init__(self, receiver_cls, start):
        self.sim = Simulator()
        self.sim.run(until=start)     # the grid is anchored at construction
        self.receiver = receiver_cls(self.sim, FLOW)
        self.receiver.transmit = self._transmit
        self.nacks = []
        self.feedback = []

    def _transmit(self, packet):
        now = self.sim.now
        if packet.kind == PacketKind.RTCP_OTHER:
            self.nacks.append((now, list(packet.headers["nack_seqs"])))
        else:
            arrivals = packet.headers["twcc_feedback"].arrivals
            self.feedback.append((now, dict(arrivals)))

    def deliver(self, at, seq):
        packet = Packet(FLOW, 1200, seq=seq, headers={"twcc_seq": seq})
        self.sim.call_at(at, lambda: self.receiver.on_data(packet))

    def state(self):
        receiver = self.receiver
        return {
            "nacks": self.nacks,
            "feedback": self.feedback,
            "missing": receiver._missing,
            "highest": receiver._highest_seq,
            "received": receiver.packets_received,
            "nacks_sent": receiver.nacks_sent,
            "now": self.sim.now,
        }


def _assert_planted_on_the_grid(new, ref):
    """An open gap has a wake-up planted (one may outlive the gap by a
    tick), and the wake-up sits on an instant the reference timer will
    tick at."""
    receiver = new.receiver
    event = receiver._nack_event
    planted = event is not None and not event.cancelled
    if receiver._missing and not receiver._timer.stopped:
        assert planted
    if not planted:
        return
    grid = ref.receiver._nack_timer._event.time
    while grid < event.time:
        grid += NACK_DELAY
    assert grid == event.time


def _replay(ops, seed, start):
    """Apply one scripted arrival schedule to both receivers in lockstep.

    The script plays the network: it decides from its own random
    stream which seqs arrive, when, lost, late, twice or reordered, so
    both receivers see identical inputs.
    """
    rng = random.Random(seed)
    new = _Side(RtpReceiver, start)
    ref = _Side(ReferenceRtpReceiver, start)
    sides = (new, ref)
    now = start
    next_seq = 0
    lost = []           # never delivered yet: late-fill candidates
    delivered = []
    open_at_stop = []   # the gaps open at each stop()
    for kind, dt, count, share in ops:
        arrivals = []   # (absolute time, seq)
        if kind == "burst":           # in order, some lost
            for index in range(count % 6 + 1):
                at = now + index * dt / 8
                if rng.random() < share:
                    lost.append(next_seq)
                else:
                    arrivals.append((at, next_seq))
                next_seq += 1
        elif kind == "reorder":       # a run delivered back to front
            seqs = list(range(next_seq, next_seq + count % 4 + 2))
            next_seq += len(seqs)
            for index, seq in enumerate(reversed(seqs)):
                arrivals.append((now + index * dt * share / 4, seq))
        elif kind == "fill" and lost:  # late arrivals of lost seqs
            for _ in range(count % 3 + 1):
                if lost:
                    seq = lost.pop(rng.randrange(len(lost)))
                    arrivals.append((now + rng.random() * dt, seq))
        elif kind == "dup" and delivered:
            seq = rng.choice(delivered)
            arrivals.append((now + share * dt, seq))
        elif kind == "grid" and not ref.receiver._timer.stopped:
            # Exactly on a tick instant: the next one (scheduled before
            # this arrival, so the tick fires first) or the one after
            # (scheduled after it, so the arrival fires first).
            at = ref.receiver._nack_timer._event.time
            if share >= 0.5:
                at += NACK_DELAY
            lost.extend(range(next_seq, next_seq + count % 3))
            next_seq += count % 3
            arrivals.append((at, next_seq))
            next_seq += 1
        elif kind == "idle":          # many ticks with nothing arriving
            now += NACK_DELAY * (5 + count)
        elif kind == "stop":
            open_at_stop.append(dict(new.receiver._missing))
            for side in sides:
                side.receiver.stop()
        for at, seq in arrivals:
            delivered.append(seq)
            for side in sides:
                side.deliver(at, seq)
        end = max([now + dt] + [at for at, _ in arrivals])
        for side in sides:
            side.sim.run(until=end)
        now = end
        assert new.state() == ref.state()
        _assert_planted_on_the_grid(new, ref)
        assert new.sim.events_processed <= ref.sim.events_processed
    return new, ref, set(delivered), open_at_stop


nack_schedules = st.fixed_dictionaries({
    "ops": st.lists(
        st.tuples(st.sampled_from(["burst"] * 4 + ["grid"] * 2 + [
                      "reorder", "fill", "fill", "dup", "idle", "stop"]),
                  st.floats(min_value=0.0, max_value=0.08),
                  st.integers(min_value=0, max_value=40),
                  st.floats(min_value=0.0, max_value=1.0)),
        max_size=60),
    "seed": st.integers(min_value=0, max_value=2**32),
    "start": st.sampled_from([0.0, 0.0, 0.37, 12.345]),
})


class TestNackWakeUpMatchesTimer:
    @given(nack_schedules)
    @settings(max_examples=150, deadline=None)
    def test_identical_nacks_on_random_schedules(self, schedule):
        """Loss, reordering, duplicates, late fills, arrivals exactly
        on a tick instant (either side of it), idle spans many ticks
        long, retry give-ups and ``stop()`` with a gap open: the same
        ``(time, nack_seqs)`` log, feedback and ``_missing`` after
        every step."""
        _replay(**schedule)

    def test_schedule_reaches_every_branch(self):
        """On one fixed schedule holding every op kind: a gap is given
        up after its retries and ``stop()`` lands while a gap is open."""
        ops = ([("burst", 0.02, 5, 0.4)] * 6
               + [("grid", 0.0, 2, 0.2), ("grid", 0.0, 1, 0.9),
                  ("idle", 0.0, 20, 0.0), ("fill", 0.01, 2, 0.0),
                  ("dup", 0.01, 0, 0.5), ("reorder", 0.02, 3, 1.0),
                  ("grid", 0.0, 2, 0.0), ("stop", 0.0, 0, 0.0),
                  ("burst", 0.05, 5, 0.5), ("idle", 0.0, 9, 0.0)])
        new, ref, delivered, open_at_stop = _replay(ops, seed=7, start=0.37)
        requested = [seq for _, seqs in new.nacks for seq in seqs]
        given_up = {seq for seq in requested if seq not in delivered
                    and seq not in new.receiver._missing}
        assert given_up
        assert all(requested.count(seq) == NACK_RETRIES for seq in given_up)
        assert len(open_at_stop) == 1 and open_at_stop[0]
        # Fewer dispatches than the always-on timer, same NACKs.
        assert new.sim.events_processed < ref.sim.events_processed


class TestNoTickWithoutAGap:
    def test_loss_free_receiver_plants_nothing(self):
        """In-order arrivals for 2 s: no NACK tick is ever planted (the
        always-on timer dispatched 133)."""
        sim = Simulator()
        receiver = RtpReceiver(sim, FLOW)
        for seq in range(400):
            packet = Packet(FLOW, 1200, seq=seq, headers={"twcc_seq": seq})
            sim.call_at(seq * 0.005, lambda p=packet: receiver.on_data(p))
        planted = []
        real_call_at = sim.call_at
        sim.call_at = lambda time, callback: (
            planted.append(callback.__name__), real_call_at(time, callback))[1]
        sim.run(until=2.0)
        assert receiver.packets_received == 400
        assert planted == []
