"""Property-based tests on transport and CCA invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cca import make_rate_cca, make_window_cca
from repro.cca.base import FeedbackPacketReport
from repro.cca.cubic import CubicCca
from repro.net.packet import FiveTuple, Packet
from repro.sim.engine import Simulator
from repro.transport.quic import QuicSender
from repro.transport.tcp import TcpReceiver, TcpSender
from tests.reference_transport import (ReferenceQuicSender,
                                       ReferenceTcpReceiver,
                                       ReferenceTcpSender)


class TestWindowCcaProperties:
    @given(st.sampled_from(["cubic", "bbr", "copa", "abc"]),
           st.lists(st.tuples(st.floats(min_value=0.001, max_value=1.0),
                              st.integers(min_value=1, max_value=100_000)),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_cwnd_stays_positive(self, name, acks):
        """Any sequence of ACK/loss/RTO events leaves a usable window."""
        cca = make_window_cca(name)
        now = 0.0
        for i, (rtt, nbytes) in enumerate(acks):
            now += 0.01
            cca.on_ack(now, rtt, nbytes)
            if i % 7 == 3:
                cca.on_loss(now)
            if i % 23 == 11:
                cca.on_rto(now)
            if i % 5 == 2:
                cca.on_explicit_feedback(now, "brake")
            assert cca.cwnd >= cca.mss, name

    @given(st.sampled_from(["gcc", "nada", "scream"]),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5),
                              st.booleans()),
                    min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_rate_cca_stays_clamped(self, name, events):
        """Rate CCAs never leave [min_bps, max_bps] whatever arrives."""
        cca = make_rate_cca(name, initial_bps=1e6, max_bps=5e6)
        now = 0.0
        seq = 0
        for owd, lost in events:
            now += 0.05
            reports = []
            for k in range(5):
                recv = None if (lost and k == 0) else now + owd
                reports.append(FeedbackPacketReport(seq, 1200,
                                                    now - 0.05 + 0.01 * k,
                                                    recv))
                seq += 1
            cca.on_feedback(now, reports)
            assert cca.min_bps <= cca.target_bps <= cca.max_bps, name


class TestTcpSenderProperties:
    @given(st.lists(st.integers(min_value=100, max_value=20_000),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_all_written_bytes_delivered_in_order(self, writes):
        """Lossless path: every write arrives exactly once, in order."""
        sim = Simulator()
        flow = FiveTuple("s", "c", 1, 2, "tcp")
        sender = TcpSender(sim, flow, CubicCca(),
                           max_buffer_bytes=10**9)
        receiver = TcpReceiver(sim, flow)
        sender.transmit = (
            lambda p: sim.schedule(0.01, lambda pp=p: receiver.on_data(pp)))
        receiver.transmit = (
            lambda p: sim.schedule(0.01, lambda pp=p: sender.on_ack(pp)))
        delivered = []
        receiver.on_deliver = (
            lambda seq, end, meta, now: delivered.append((seq, end)))
        for nbytes in writes:
            sender.write(nbytes)
        sim.run(until=60.0)
        total = sum(writes)
        assert delivered[-1][1] == total
        # Contiguous coverage with no overlap.
        position = 0
        for seq, end in delivered:
            assert seq == position
            position = end

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_inflight_never_exceeds_window_plus_one(self, segments):
        sim = Simulator()
        flow = FiveTuple("s", "c", 1, 2, "tcp")
        sender = TcpSender(sim, flow, CubicCca(), max_buffer_bytes=10**9)
        sender.transmit = lambda p: None  # nothing is ever acked
        sender.write(segments * sender.mss)
        sim.run(until=0.1)
        assert sender.inflight_bytes <= sender.cca.cwnd + sender.mss


class TestQuicProperties:
    @given(st.lists(st.integers(min_value=100, max_value=10_000),
                    min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_quic_delivers_every_chunk_once(self, writes):
        from repro.cca.copa import CopaCca
        from repro.transport.quic import QuicReceiver, QuicSender
        sim = Simulator()
        flow = FiveTuple("s", "c", 1, 2, "quic")
        sender = QuicSender(sim, flow, CopaCca(mss=1200), mss=1200,
                            max_buffer_bytes=10**9)
        receiver = QuicReceiver(sim, flow)
        sender.transmit = (
            lambda p: sim.schedule(0.01, lambda pp=p: receiver.on_data(pp)))
        receiver.transmit = (
            lambda p: sim.schedule(0.01, lambda pp=p: sender.on_ack(pp)))
        payloads = []
        receiver.on_deliver = lambda payload, now: payloads.append(payload)
        for nbytes in writes:
            sender.write(nbytes)
        sim.run(until=60.0)
        finals = [p for p in payloads if p.get("last_of_write")]
        assert len(finals) == len(writes)


# ---------------------------------------------------------------------------
# In-flight ledger vs the re-scan oracles (tests/reference_transport.py)
# ---------------------------------------------------------------------------


class _Path:
    """Two-way pipe, deterministic per seed: the k-th packet offered in
    each direction meets the same fate whichever implementation offers
    it.  Data crosses a 500 packet/s bottleneck with a 48-packet
    tail-drop queue (burst loss, multi-hole SACK recovery), then random
    loss, blackouts and a jittered delay (reordering); ACKs skip the
    bottleneck."""

    SERVICE = 0.002

    def __init__(self, sim, seed, loss, ack_loss, jitter, blackouts=()):
        self.sim = sim
        self.rng = random.Random(seed)
        self.loss = loss
        self.ack_loss = ack_loss
        # Jitter is never zero: delays drawn from a continuous stream
        # keep deliveries off the timer's float instants, where only
        # the event seq (not the instant) may differ from the oracle.
        self.jitter = jitter
        self.blackouts = list(blackouts)
        self.free_at = 0.0

    def _lost(self, loss):
        now = self.sim.now
        return (self.rng.random() < loss
                or any(start <= now < end for start, end in self.blackouts))

    def down(self, packet, deliver):
        lost, delay = self._lost(self.loss), self.rng.random() * self.jitter
        backlog = max(self.free_at - self.sim.now, 0.0)
        if lost or backlog > 48 * self.SERVICE:
            return
        self.free_at = self.sim.now + backlog + self.SERVICE
        self.sim.call_at(self.free_at + 0.005 + delay,
                         lambda: deliver(packet))

    def up(self, packet, deliver):
        lost, delay = self._lost(self.ack_loss), self.rng.random() * self.jitter
        if not lost:
            self.sim.schedule(0.005 + delay, lambda: deliver(packet))


def _assert_ledger(sender):
    """The two facts every O(1) walk in the sender relies on."""
    keys = list(sender._inflight)
    assert keys == sorted(set(keys)), "in-flight keys not ascending"
    assert sender.inflight_bytes == sum(
        entry[0] for entry in sender._inflight.values())


def _drive_tcp(sender_cls, receiver_cls, mode, writes, path_args, horizon,
               on_ack_hook=None):
    cca_name, bulk = mode
    sim = Simulator()
    flow = FiveTuple("s", "c", 1, 2, "tcp")
    cca = make_window_cca(cca_name)
    rto_times = []

    def on_rto(now, inner=cca.on_rto):
        rto_times.append(now)
        inner(now)

    cca.on_rto = on_rto
    sender = sender_cls(sim, flow, cca, max_buffer_bytes=10**9)
    receiver = receiver_cls(sim, flow)
    path = _Path(sim, *path_args)
    emitted, acks = [], []

    def down(packet):
        _assert_ledger(sender)
        emitted.append((sim.now, packet.seq, packet.size,
                        sender._inflight[packet.seq][2]))
        path.down(packet, receiver.on_data)

    def deliver_ack(packet):
        sender.on_ack(packet)
        _assert_ledger(sender)
        if on_ack_hook is not None:
            on_ack_hook(sim, path)

    def up(packet):
        acks.append((sim.now, packet.ack,
                     tuple(packet.headers.get("sack_ranges", ()))))
        path.up(packet, deliver_ack)

    sender.transmit = down
    receiver.transmit = up
    if bulk:
        sender.unlimited = True
        sim.schedule(0.0, sender._try_send)
    at = 0.0
    for gap, nbytes in writes:
        at += gap
        sim.call_at(at, lambda n=nbytes: sender.write(n))
    sim.run(until=horizon)
    return {"emitted": emitted, "acks": acks, "rto_times": rto_times,
            "cwnd": sender.cca.cwnd, "rto_count": sender.rto_count,
            "retransmissions": sender.retransmissions,
            "inflight": dict(sender._inflight), "now": sim.now,
            "pending": sim.pending()}


# BBR (the paced path) only app-limited: in bulk mode it ignores loss
# and holds thousands of segments in flight at this bottleneck.
tcp_schedules = st.fixed_dictionaries({
    "mode": st.sampled_from([("cubic", True), ("cubic", False),
                             ("copa", True), ("copa", False),
                             ("abc", True), ("abc", False),
                             ("bbr", False)]),
    "writes": st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.5),
                                 st.integers(min_value=1, max_value=40_000)),
                       max_size=12),
    "path_args": st.tuples(
        st.integers(min_value=0, max_value=2**32),        # fate stream
        st.sampled_from([0.0, 0.02, 0.1, 0.3]),           # data loss
        st.sampled_from([0.0, 0.05, 0.3]),                # ACK loss
        st.floats(min_value=1e-4, max_value=0.03),        # reordering
        st.lists(st.tuples(st.floats(min_value=0.0, max_value=4.0),
                           st.floats(min_value=0.0, max_value=3.0))
                 .map(lambda b: (b[0], b[0] + b[1])), max_size=2)),
    "horizon": st.floats(min_value=0.5, max_value=4.0),
})


class TestTcpLedgerMatchesReference:
    @given(tcp_schedules)
    @settings(max_examples=150, deadline=None)
    def test_identical_emissions_on_random_schedules(self, schedule):
        """Random writes over a lossy reordering path with blackouts
        (SACK holes, dup-ACK recovery, RTO back-off, app-limited idle
        gaps): same segments at the same instants, same window, same
        RTO instants — the timer wake-ups are the only extra events."""
        new = _drive_tcp(TcpSender, TcpReceiver, **schedule)
        ref = _drive_tcp(ReferenceTcpSender, ReferenceTcpReceiver, **schedule)
        pending_new, pending_ref = new.pop("pending"), ref.pop("pending")
        assert new == ref
        # An idle sender leaves nothing scheduled, as the oracle does.
        if not new["inflight"]:
            assert pending_new == pending_ref

    def test_rto_deadline_shrinks_after_backoff(self):
        """A write lost whole in a 30 s blackout backs the RTO off to
        64x.  The first new ACK resets the back-off to 1, so the next
        timeout is due in one RTO, long before the wake-up planted for
        64 of them — and the path dies again at that ACK, so the
        shrunken deadline has to fire."""
        recovered = []

        def hook(sim, path):
            if sim.now > 31.0 and not recovered:
                recovered.append(sim.now)
                path.blackouts.append((sim.now, sim.now + 5.0))

        def run(sender_cls, receiver_cls):
            del recovered[:]
            return _drive_tcp(sender_cls, receiver_cls, ("cubic", False),
                              [(0.1, 3000), (1.4, 20_000)],
                              (7, 0.0, 0.0, 0.01, [(1.0, 31.0)]), 45.0,
                              on_ack_hook=hook), recovered[0]

        new, back_at = run(TcpSender, TcpReceiver)
        ref, _ = run(ReferenceTcpSender, ReferenceTcpReceiver)
        new.pop("pending"), ref.pop("pending")
        assert new == ref
        rtos = new["rto_times"]
        gaps = [b - a for a, b in zip(rtos, rtos[1:])]
        before = [t for t in rtos if t < back_at]
        after = [t for t in rtos if t > back_at]
        assert max(gaps) > 12.0                  # back-off reached 64
        assert before[-1] + 12.0 > back_at + 1.0  # stale wake-up is far off
        assert after[0] - back_at < 1.0          # yet the RTO came in one


class TestTcpReceiverSackRanges:
    @given(st.lists(st.integers(min_value=1, max_value=3000),
                    min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_incremental_ranges_match_resort(self, sizes, rnd):
        """Segments tile the stream; arrivals are shuffled, duplicated
        and partly missing.  After every packet the incrementally
        merged ranges equal a sort-and-merge of everything held."""
        sim = Simulator()
        flow = FiveTuple("s", "c", 1, 2, "tcp")
        receiver = TcpReceiver(sim, flow)
        tiles, seq = [], 0
        for size in sizes:
            tiles.append((seq, size))
            seq += size
        arrivals = [t for t in tiles if rnd.random() < 0.8] * 2
        rnd.shuffle(arrivals)
        for seq, size in arrivals:
            packet = Packet(flow, size, seq=seq)
            packet.headers["end_seq"] = seq + size
            receiver.on_data(packet)
            assert receiver._sack_ranges(limit=10**6) == \
                ReferenceTcpReceiver._sack_ranges(receiver, limit=10**6)
            if not receiver._out_of_order:
                assert receiver._sack == []


def _drive_quic(sender_cls, writes, path_args, horizon):
    from repro.cca.copa import CopaCca
    from repro.transport.quic import QuicReceiver
    sim = Simulator()
    flow = FiveTuple("s", "c", 1, 2, "quic")
    sender = sender_cls(sim, flow, CopaCca(mss=1200), mss=1200,
                        max_buffer_bytes=10**9)
    receiver = QuicReceiver(sim, flow)
    path = _Path(sim, *path_args)
    emitted = []

    def down(packet):
        _assert_ledger(sender)
        emitted.append((sim.now, packet.seq, packet.size))
        path.down(packet, receiver.on_data)

    def deliver_ack(packet):
        sender.on_ack(packet)
        _assert_ledger(sender)

    sender.transmit = down
    receiver.transmit = lambda p: path.up(p, deliver_ack)
    at = 0.0
    for gap, nbytes in writes:
        at += gap
        sim.call_at(at, lambda n=nbytes: sender.write(n))
    sim.run(until=horizon)
    return {"emitted": emitted, "cwnd": sender.cca.cwnd,
            "pto_count": sender.pto_count,
            "retransmissions": sender.retransmissions,
            "inflight": dict(sender._inflight),
            "buffered": list(sender._buffered)}


class TestQuicLedgerMatchesReference:
    @given(tcp_schedules)
    @settings(max_examples=80, deadline=None)
    def test_identical_emissions_on_random_schedules(self, schedule):
        args = (schedule["writes"] or [(0.0, 5000)], schedule["path_args"],
                schedule["horizon"])
        assert _drive_quic(QuicSender, *args) == \
            _drive_quic(ReferenceQuicSender, *args)
