"""RTC feedback frontier vs the full-scan oracles (tests/reference_rtp.py).

``RtpSender.on_feedback`` walks only ``[frontier, highest reported
seq]``, GCC keeps a running byte total / newest arrival for its receive
window, and the trendline slope sums column lists.  Every schedule
below is replayed against the pre-frontier bodies and must hand the CCA
the same reports and leave the same floats behind, step by step.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cca.base import FeedbackPacketReport
from repro.cca.gcc import GccController, TrendlineEstimator
from repro.net.packet import FiveTuple, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.transport.rtp import RtpSender, TwccFeedback
from tests.reference_rtp import (ReferenceGccController, ReferenceRtpSender,
                                 ReferenceTrendlineEstimator)

FLOW = FiveTuple("s", "c", 1, 2, "udp")


class CountingDict(dict):
    """History dict that counts the entries ``on_feedback`` looks at."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def items(self):
        self.lookups += len(self)
        return super().items()


class _Side:
    """One sender + GCC pair with every report handed to the CCA logged."""

    def __init__(self, sender_cls, cca_cls, history_window):
        self.sim = Simulator()
        self.cca = cca_cls(initial_bps=1e6)
        self.sender = sender_cls(self.sim, FLOW, self.cca,
                                 history_window=history_window)
        self.sender.transmit = lambda packet: None
        self.batches = []  # one report list per cca.on_feedback call
        inner = self.cca.on_feedback

        def spy(now, reports):
            self.batches.append((now, list(reports)))
            inner(now, reports)

        self.cca.on_feedback = spy

    def feedback(self, arrivals):
        packet = Packet(FLOW.reversed(), 120, PacketKind.RTCP_TWCC)
        packet.headers["twcc_feedback"] = TwccFeedback(0, dict(arrivals))
        self.sender.on_feedback(packet)

    def nack(self, seqs):
        packet = Packet(FLOW.reversed(), 120, PacketKind.RTCP_OTHER)
        packet.headers["nack_seqs"] = list(seqs)
        self.sender.on_nack(packet)

    def state(self):
        sender, cca = self.sender, self.cca
        return {
            "batches": self.batches,
            "rtt": (sender.rtt_recorder.times, sender.rtt_recorder.rtts),
            "rate": (sender.rate_recorder.times, sender.rate_recorder.rates),
            "history": sender._history,
            "oldest": sender._oldest_seq,
            "next_seq": sender._twcc_seq,
            "retransmissions": sender.retransmissions,
            "target_bps": cca.target_bps,
            "recv_rate": cca._last_recv_rate,
            "recv_window": list(cca._recv_window),
            "slope": cca.trendline._slope(),
            "samples": cca.trendline._samples,
            "threshold": cca.detector.threshold,
            "rates": (cca._delay_rate, cca._loss_rate),
            "state_log": cca.state_log,
        }


def _assert_frontier(side):
    """The facts the O(new reports) walks rely on."""
    sender, cca = side.sender, side.cca
    reported = [r.seq for _, batch in side.batches for r in batch]
    seen = set(reported)
    assert len(reported) == len(seen), "a seq reached the CCA twice"
    assert sender._next_unreported <= sender._twcc_seq
    for seq in sender._history:
        # Reported exactly when the frontier has passed it.
        assert (seq in seen) == (seq < sender._next_unreported), seq
    assert cca._recv_bytes == sum(size for _, size in cca._recv_window)
    if cca._recv_window:
        assert cca._recv_newest == max(t for t, _ in cca._recv_window)


def _replay(ops, seed, history_window):
    """Apply one scripted schedule to both implementations in lockstep.

    The script plays the network and the receiver: it decides which
    seqs each feedback names and when, from its own fate stream, so
    both senders see byte-identical inputs.
    """
    rng = random.Random(seed)
    new = _Side(RtpSender, GccController, history_window)
    ref = _Side(ReferenceRtpSender, ReferenceGccController, history_window)
    sides = (new, ref)
    now = 0.0
    cursor = 0          # receiver's next unreported seq
    stragglers = {}     # seq -> arrival, held back from their feedback
    sent_feedback = []  # every arrivals dict so far (duplicates / stale)

    def arrival(seq):
        sent_at = new.sender._history.get(seq, (now,))[0]
        return sent_at + 0.01 + rng.random() * 0.08

    for kind, dt, count, size in ops:
        now += dt
        if kind == "idle":            # longer than the history window
            now += history_window * (1 + count / 10)
        for side in sides:
            side.sim.run(until=now)
        next_seq = new.sender._twcc_seq
        arrivals = None
        if kind == "send":
            for side in sides:
                for _ in range(count % 8 + 1):
                    side.sender.send_packet(size)
        elif kind == "nack":          # retransmissions between feedbacks
            seqs = [rng.randrange(next_seq + 2) for _ in range(count % 5)]
            for side in sides:
                side.nack(seqs)
        elif kind == "feedback":      # the receiver's next window
            upto = min(cursor + count + 1, next_seq)
            arrivals = {}
            for seq in range(cursor, upto):
                fate = rng.random()
                if fate < 0.7:
                    arrivals[seq] = arrival(seq)
                elif fate < 0.8:
                    stragglers[seq] = arrival(seq) + 0.1
            cursor = upto
        elif kind == "straggler":     # late arrivals for reported holes
            arrivals, stragglers = stragglers, {}
            if cursor < next_seq:
                arrivals[cursor] = arrival(cursor)
                cursor += 1
        elif kind == "replay" and sent_feedback:   # duplicate or stale
            arrivals = rng.choice(sent_feedback)
        elif kind == "beyond":        # names seqs never sent
            arrivals = {next_seq + rng.randrange(count + 1): now + 0.02}
            if count % 2 and next_seq:
                arrivals[next_seq - 1] = arrival(next_seq - 1)
        elif kind == "evicted":       # names seqs trimmed long ago
            arrivals = {seq: now for seq in
                        range(max(new.sender._oldest_seq - count, 0),
                              new.sender._oldest_seq)}
        elif kind == "wild":          # any subset of a wide seq range
            arrivals = {seq: arrival(seq) for seq in range(next_seq + 4)
                        if rng.random() < count / 40}
        if arrivals is not None:
            sent_feedback.append(arrivals)
            for side in sides:
                side.feedback(arrivals)
        assert new.state() == ref.state()
        _assert_frontier(new)
    return new


rtc_schedules = st.fixed_dictionaries({
    "ops": st.lists(
        st.tuples(st.sampled_from(["send"] * 4 + ["feedback"] * 3 + [
                      "idle", "nack", "straggler", "replay", "beyond",
                      "evicted", "wild"]),
                  st.floats(min_value=0.0, max_value=0.12),
                  st.integers(min_value=0, max_value=40),
                  st.integers(min_value=1, max_value=1500)),
        max_size=80),
    "seed": st.integers(min_value=0, max_value=2**32),
    "history_window": st.sampled_from([0.3, 1.0, 2.0]),
})


class TestFrontierMatchesReference:
    @given(rtc_schedules)
    @settings(max_examples=150, deadline=None)
    def test_identical_reports_on_random_schedules(self, schedule):
        """Loss, stragglers, duplicated / stale / reordered feedback,
        feedback naming never-sent or evicted seqs, idle gaps beyond
        the history window and NACK retransmissions: the same reports
        per feedback, the same recorder series and the same GCC floats
        after every step."""
        _replay(**schedule)

    def test_schedule_reaches_every_branch(self):
        """The scripted kinds do what their names say on one fixed
        schedule — losses, a stale no-op and eviction all occur."""
        ops = ([("send", 0.01, 7, 1200), ("feedback", 0.01, 5, 1)] * 20
               + [("replay", 0.0, 0, 1), ("beyond", 0.0, 3, 1),
                  ("idle", 0.0, 5, 1), ("send", 0.0, 0, 900),
                  ("evicted", 0.0, 9, 1), ("straggler", 0.0, 0, 1),
                  ("feedback", 0.01, 30, 1)])
        new = _replay(ops, seed=5, history_window=1.0)
        reports = [r for _, batch in new.batches for r in batch]
        assert any(r.recv_time is None for r in reports)
        assert new.sender._oldest_seq > 0
        assert new.sender.feedback_received > len(new.batches)


class TestHistoryLookupsScaleWithReports:
    def test_lookups_bounded_by_reported_span(self):
        """20 k packets outstanding in a 60 s history: one feedback
        costs the span it reports, not the history it sits on."""
        side = _Side(RtpSender, GccController, history_window=60.0)
        sender = side.sender
        for i in range(20_000):
            side.sim.run(until=i * 0.002)
            sender.send_packet()
        assert len(sender._history) == 20_000
        sender._history = history = CountingDict(sender._history)
        for seqs, span in [((0, 9), 10), ((10,), 1), ((11, 40), 30),
                           ((5, 20), 0)]:   # the last one is stale
            history.lookups = 0
            side.feedback({seq: side.sim.now for seq in seqs})
            assert history.lookups <= span + 2
        assert [len(batch) for _, batch in side.batches] == [10, 1, 30]


class TestGccRunningWindowMatchesReference:
    @given(st.lists(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=30.0),
        st.integers(min_value=1, max_value=1500)), max_size=12),
        max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_receive_rate_on_arbitrary_arrival_times(self, feedbacks):
        """Arrival times in any order — backwards by more than the
        window included — leave the same window and the same rate."""
        new, ref = GccController(), ReferenceGccController()
        for batch in feedbacks:
            received = [FeedbackPacketReport(0, size, 0.0, t)
                        for t, size in batch]
            new._update_receive_rate(0.0, received)
            ref._update_receive_rate(0.0, received)
            assert new._recv_window == ref._recv_window
            assert new._last_recv_rate == ref._last_recv_rate
            assert new._recv_bytes == sum(s for _, s in new._recv_window)

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5),
                              st.floats(min_value=-0.2, max_value=0.2)),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_trendline_slope_bit_identical(self, deltas):
        new, ref = TrendlineEstimator(), ReferenceTrendlineEstimator()
        arrival = 0.0
        for gap, delta in deltas:
            arrival += gap
            assert new.update(arrival, delta) == ref.update(arrival, delta)
