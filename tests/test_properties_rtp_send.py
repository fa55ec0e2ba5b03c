"""RTP send path vs the per-packet-event oracle (tests/reference_rtp.py).

``RtpVideoApp._encode_tick`` posts a frame's first packet, pushes the
rest onto one ``TimedRun``, and ``RtpSender.send_packet`` copies the
frame-shared headers once.  Every schedule below is replayed against
the old bodies (one classic event, lambda and headers dict per packet)
and must emit the same packets at the same instants, in the same order
relative to the shadow markers planted before and after the app — so
anything else scheduled around a burst fires in the same order too.

A post that runs in place takes no seq and is no dispatch of its own,
so the raw seq counter and event count differ between the sides.  Each
row's seq reading is compared after a monotone relabel (its rank among
the distinct readings), which still says which rows had an entry
scheduled between them; the event counts must match once the posts
that ran in place are counted back in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.video import BURST_GAP, RtpVideoApp, VideoEncoder
from repro.net.packet import FiveTuple, Packet, PacketKind
from repro.sim.engine import Simulator, Timer
from repro.sim.random import DeterministicRandom
from repro.transport.rtp import RtpSender
from tests.reference_rtp import ReferenceRtpSender, ReferenceRtpVideoApp

pytestmark = pytest.mark.bitexact

FLOW = FiveTuple("s", "c", 1, 2, "udp")
FPS = 24.0


class _Cca:
    """Rate source the script turns per frame (no feedback here)."""

    target_bps = 1e6


class _Receiver:
    on_media = None

    def stop(self):
        pass


class _PostCountingSimulator(Simulator):
    """Counts the posts that ran in place (no event, no seq)."""

    in_place = 0

    def post(self, callback):
        waiting = len(self._posted)
        super().post(callback)
        self.in_place += len(self._posted) > waiting


def _relabel(log):
    """``log`` with each row's seq reading replaced by its rank among
    the distinct readings (the counter never decreases)."""
    ranks = {}
    return [row[:2] + (ranks.setdefault(row[2], len(ranks)),) + row[3:]
            for row in log]


class _Side:
    """One app + sender with every emission and competing event logged.

    ``log`` rows carry ``sim._seq`` as read when the row fires, so two
    sides agree only if every packet and every marker fired between the
    same seq-consuming schedules.
    """

    def __init__(self, sender_cls, app_cls, seed, paced):
        sim = self.sim = _PostCountingSimulator()
        self.log = []
        self.marks = ()         # burst-gap multiples the shadows plant at
        self.cca = _Cca()
        self.sender = sender_cls(sim, FLOW, self.cca)
        self.sender.transmit = self._transmit
        self.gap = BURST_GAP
        # Shadow timers tick at the app's own instants (same interval,
        # same accumulation): one created before the app, so its
        # markers hold lower seqs than the frame's packets, one after.
        Timer(sim, 1.0 / FPS, lambda: self._shadow("early"), first_delay=0.0)
        self.app = app_cls(sim, self.sender, _Receiver(),
                           VideoEncoder(FPS, DeterministicRandom(seed)),
                           paced=paced)
        Timer(sim, 1.0 / FPS, lambda: self._shadow("late"), first_delay=0.0)

    def _mark(self, tag):
        self.log.append(("mark", self.sim.now, self.sim._seq, tag))

    def _shadow(self, tag):
        # ``k * gap`` off the tick is the float packet ``k`` fires at
        # when unpaced; k = 0 is a zero-delay schedule at ``now``.
        for k in self.marks:
            self.sim.schedule(k * self.gap, lambda k=k: self._mark((tag, k)))

    def _transmit(self, packet):
        self.log.append(("pkt", self.sim.now, self.sim._seq, packet.seq,
                         packet.size, dict(packet.headers)))
        if packet.seq % 3 == 0:
            # What a link does on send: a zero-delay serve kick.
            self.sim.schedule(0.0, lambda: self._mark(("kick", packet.seq)))

    def nack(self, seqs):
        packet = Packet(FLOW.reversed(), 120, PacketKind.RTCP_OTHER)
        packet.headers["nack_seqs"] = list(seqs)
        self.sender.on_nack(packet)

    def state(self):
        sender = self.sender
        return {
            "log": _relabel(self.log),
            "dispatches": self.sim.events_processed + self.sim.in_place,
            "pending": self.sim.pending(),
            "history": sender._history,
            "next_seq": sender._twcc_seq,
            "retransmissions": sender.retransmissions,
            "frames_sent": self.app.frames_sent,
        }


def _replay(frames, seed, paced):
    """Drive both implementations frame by frame, in lockstep."""
    new = _Side(RtpSender, RtpVideoApp, seed, paced)
    ref = _Side(ReferenceRtpSender, ReferenceRtpVideoApp, seed, paced)
    for index, (target_bps, marks, nack_at, nack_seqs) in enumerate(frames):
        for side in (new, ref):
            side.cca.target_bps = target_bps
            side.marks = marks
            # A NACK somewhere inside the frame interval: retransmits
            # history entries (frame-shared dicts on the new side) in
            # between the burst's own packets.
            side.sim.call_at(
                (index + nack_at) / FPS,
                lambda side=side, base=side.sender._twcc_seq:
                    side.nack([base - back for back in nack_seqs]))
            # Mid-interval stop: tick ``index`` and all it spawned up
            # to here have run, tick ``index + 1`` has not.
            side.sim.run(until=(index + 0.5) / FPS)
        assert new.state() == ref.state()
    for side in (new, ref):     # drain what the last bursts left behind
        side.app.stop()
        side.sim.run(until=(len(frames) + 4) / FPS)
    assert new.state() == ref.state()
    return new


send_schedules = st.fixed_dictionaries({
    "frames": st.lists(
        st.tuples(
            # 100 kb/s is a one-packet frame; 12 Mb/s times the 3x
            # keyframe is ~150 packets, longer than 1/fps.
            st.floats(min_value=1e5, max_value=1.2e7),
            st.lists(st.integers(min_value=0, max_value=6), max_size=3),
            st.floats(min_value=0.0, max_value=0.49),
            st.lists(st.integers(min_value=1, max_value=40), max_size=3)),
        min_size=1, max_size=12),
    "seed": st.integers(min_value=0, max_value=2**32),
    "paced": st.booleans(),
})


class TestBurstRunMatchesPerPacketEvents:
    @given(send_schedules)
    @settings(max_examples=150, deadline=None)
    def test_identical_emissions_on_random_schedules(self, schedule):
        """One-packet frames to bursts outlasting the frame interval,
        paced or not, NACK retransmissions mid-burst, same-instant
        events with lower and higher seqs, zero-delay kicks: the same
        ``(time, relabelled seq, twcc_seq, size, headers)`` rows, in the
        same order among the markers, after every frame."""
        _replay(**schedule)

    def test_schedule_reaches_every_branch(self):
        """On one fixed schedule: a burst that outlasts ``1/fps`` (so
        the next frame's early packets take the classic fallback and
        interleave with it), a retransmission and same-instant marks."""
        frames = [(1.2e7, [0, 1, 2], 0.3, [1, 2]),
                  (9e6, [0, 3], 0.1, [5]),
                  (2e5, [0], 0.2, [1, 30]),
                  (2e6, [1], 0.4, [])]
        new = _replay(frames, seed=3, paced=False)
        packets = [row for row in new.log if row[0] == "pkt"]
        frame_ids = [row[5]["frame_id"] for row in packets]
        assert frame_ids != sorted(frame_ids), "no burst overlapped the next"
        assert new.sender.retransmissions > 0
        instants = {row[1] for row in packets}
        assert any(row[1] in instants and row[3][1] > 0
                   for row in new.log if row[0] == "mark"
                   and row[3][0] in ("early", "late"))


class TestNoEventPerPacket:
    """``Simulator.schedule`` calls made by ``_encode_tick`` itself
    (the frame timer is stopped; each tick is driven by hand from an
    event at ``now``, so the head's post can run in place)."""

    @staticmethod
    def _side():
        side = _Side(RtpSender, RtpVideoApp, seed=1, paced=False)
        side.app._timer.stop()
        return side

    @staticmethod
    def _tick(side, target_bps):
        side.cca.target_bps = target_bps
        calls = []
        real = side.sim.schedule

        def tick():
            side.sim.schedule = lambda delay, callback: (
                calls.append(delay), real(delay, callback))[1]
            try:
                side.app._encode_tick()
            finally:
                del side.sim.schedule

        side.sim.call_at(side.sim.now, tick)
        side.sim.run(until=side.sim.now)
        return calls

    def test_ordinary_frame_schedules_nothing(self):
        """A frame whose burst fits the frame interval costs the engine
        one run sentinel, not one heap event per packet (the old body
        made ``packet_count`` calls); its head went out in place."""
        side = self._side()
        assert self._tick(side, 4e6) == []
        assert side.sender.packets_sent == side.sim.in_place == 1
        packet_count = 1 + side.app._burst.pending()
        assert packet_count > 20
        side.sim.run(until=1.0 / FPS)
        assert side.sender.packets_sent == packet_count

    def test_overlapping_frame_falls_back_per_packet(self):
        """Only packets due before the previous burst's end are
        scheduled classically; the rest ride the run."""
        side = self._side()
        assert self._tick(side, 8e6) == []      # 3x keyframe: > 1/fps
        burst_end = side.app._burst_end
        side.sim.run(until=1.0 / FPS)
        assert burst_end > side.sim.now         # still draining
        pending = side.app._burst.pending()
        calls = self._tick(side, 1.2e7)
        assert calls and all(side.sim.now + d < burst_end for d in calls)
        assert side.app._burst.pending() > pending
        assert side.app._burst_end > burst_end
