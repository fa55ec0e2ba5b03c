"""Property tests: O(1) estimators == naive re-scan references, bit-for-bit.

The amortized-O(1) estimators in ``repro.core.sliding_window`` (running
int sums, a cached interval mean, monotonic-deque max, ring-buffer
sampling) must be behaviourally indistinguishable from the naive
re-scan implementations kept in ``tests/reference_sliding_window.py``
— on *every* query, for arbitrary event streams. The time-step
strategy deliberately mixes sub-resolution steps, exact window-boundary
steps, and idle gaps longer than any window, because expiry boundaries
and idle-then-bursty transitions are where running state goes stale.

The same references, fed packet by packet, are the oracle for the
batch-aware ``record`` / ``record_departure`` signatures (one call per
same-instant burst), and a teller + updater stack drained by
``dequeue_burst`` must be indistinguishable from one drained by
per-packet ``dequeue``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm import make_queue
from repro.core.feedback_updater import FeedbackKind
from repro.core.sliding_window import (
    BurstSizeTracker,
    DelayDeltaHistory,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.core.zhuge_ap import ZhugeAP
from repro.net.packet import FiveTuple, Packet
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from tests.reference_sliding_window import (
    ReferenceBurstSizeTracker,
    ReferenceDelayDeltaHistory,
    ReferenceDequeueIntervalEstimator,
    ReferenceSlidingWindowRate,
)

pytestmark = pytest.mark.bitexact

WINDOW = 0.040

# Time steps: zero steps, sub-millisecond AMPDU spacing, steps that land
# exactly on the window boundary, and idle gaps far beyond any window.
time_steps = st.one_of(
    st.sampled_from([0.0, 0.0001, 0.0005, 0.001, 0.0015, 0.005,
                     0.0399, 0.040, 0.0401, 0.05, 0.5, 2.0]),
    st.floats(min_value=0.0, max_value=0.1,
              allow_nan=False, allow_infinity=False),
)
deltas = st.floats(min_value=0.0, max_value=0.050,
                   allow_nan=False, allow_infinity=False)
sizes = st.integers(min_value=1, max_value=65_535)


class TestSlidingWindowRateEquivalence:
    @given(st.lists(st.tuples(time_steps, sizes, st.booleans()),
                    max_size=200))
    @settings(max_examples=200)
    def test_identical_rates(self, ops):
        opt = SlidingWindowRate(WINDOW)
        ref = ReferenceSlidingWindowRate(WINDOW)
        t = 0.0
        for dt, nbytes, query in ops:
            t += dt
            opt.record(t, nbytes)
            ref.record(t, nbytes)
            if query:
                assert opt.rate_bps(t) == ref.rate_bps(t)


class TestDequeueIntervalEquivalence:
    @given(st.lists(st.tuples(time_steps, st.booleans()), max_size=300))
    @settings(max_examples=200)
    def test_identical_averages(self, ops):
        opt = DequeueIntervalEstimator(WINDOW)
        ref = ReferenceDequeueIntervalEstimator(WINDOW)
        t = 0.0
        for dt, query in ops:
            t += dt
            opt.record_departure(t)
            ref.record_departure(t)
            if query:
                assert opt.average_interval(t) == ref.average_interval(t)


class TestBurstSizeEquivalence:
    @given(st.lists(st.tuples(time_steps, sizes, st.booleans()),
                    max_size=300))
    @settings(max_examples=200)
    def test_identical_maxima(self, ops):
        opt = BurstSizeTracker(window=0.050)
        ref = ReferenceBurstSizeTracker(window=0.050)
        t = 0.0
        for dt, nbytes, query in ops:
            t += dt
            opt.record_departure(t, nbytes)
            ref.record_departure(t, nbytes)
            if query:
                assert opt.max_burst_bytes(t) == ref.max_burst_bytes(t)
        # Always compare the final state too, even when no step queried.
        assert opt.max_burst_bytes(t) == ref.max_burst_bytes(t)


class TestDelayDeltaEquivalence:
    @given(st.lists(st.tuples(time_steps, deltas,
                              st.sampled_from(["push", "sample", "mean"])),
                    max_size=200))
    @settings(max_examples=200)
    def test_identical_streams(self, ops):
        """Same seed, same ops -> identical samples, means and lengths.

        Sample equivalence requires the two RNGs to stay in lockstep,
        which itself proves the windows hold identical value sequences.
        """
        opt = DelayDeltaHistory(WINDOW, rng=DeterministicRandom(3))
        ref = ReferenceDelayDeltaHistory(WINDOW, rng=DeterministicRandom(3))
        t = 0.0
        for dt, delta, op in ops:
            t += dt
            if op == "push":
                opt.push(t, delta)
                ref.push(t, delta)
            elif op == "sample":
                assert opt.sample(t) == ref.sample(t)
            else:
                assert opt.mean(t) == ref.mean(t)
            assert len(opt) == len(ref)

    @given(st.lists(st.tuples(time_steps, deltas), min_size=1,
                    max_size=100))
    def test_ring_buffer_compaction_preserves_window(self, events):
        """Heavy expiry (forcing compaction) never corrupts the window."""
        opt = DelayDeltaHistory(WINDOW, rng=DeterministicRandom(5))
        ref = ReferenceDelayDeltaHistory(WINDOW, rng=DeterministicRandom(5))
        t = 0.0
        for _ in range(3):  # several passes -> many dead prefixes
            for dt, delta in events:
                t += dt
                opt.push(t, delta)
                ref.push(t, delta)
                assert opt.mean(t) == ref.mean(t)
            t += 1.0  # idle gap: empty both windows
            assert opt.mean(t) == ref.mean(t) == 0.0


# -- burst signatures: one call per same-instant burst --------------------

# Bursts of 1-16 packets; steps that keep one burst open (under the 1 ms
# resolution), close it, and idle past every window.
bursts = st.lists(sizes, min_size=1, max_size=16)
burst_steps = st.one_of(
    st.sampled_from([0.0004, 0.0009, 0.001, 0.0031, 0.0401, 0.5]),
    time_steps)


class TestBurstCallEquivalence:
    """``(now, total, head, count)`` == the reference fed one by one."""

    @given(st.lists(st.tuples(burst_steps, bursts, st.booleans()),
                    max_size=120))
    @settings(max_examples=150)
    def test_rate(self, ops):
        opt = SlidingWindowRate(WINDOW)
        ref = ReferenceSlidingWindowRate(WINDOW)
        t, expected_ops = 0.0, 0
        for dt, burst, query in ops:
            t += dt
            opt.record(t, sum(burst), len(burst))
            for nbytes in burst:
                ref.record(t, nbytes)
            expected_ops += len(burst) + query
            if query:
                assert opt.rate_bps(t) == ref.rate_bps(t)
        assert opt.rate_bps(t + 0.039) == ref.rate_bps(t + 0.039)
        assert opt.ops == expected_ops + 1

    @given(st.lists(st.tuples(burst_steps, st.integers(1, 16),
                              st.booleans()), max_size=200))
    @settings(max_examples=150)
    def test_intervals(self, ops):
        opt = DequeueIntervalEstimator(WINDOW)
        ref = ReferenceDequeueIntervalEstimator(WINDOW)
        t = 0.0
        for dt, count, query in ops:
            t += dt
            opt.record_departure(t, count)
            for _ in range(count):
                ref.record_departure(t)
            if query:
                assert opt.average_interval(t) == ref.average_interval(t)
        assert opt.average_interval(t) == ref.average_interval(t)

    @given(st.lists(st.tuples(
        st.sampled_from([0.0004, 0.0009, 0.0009, 0.0009, 0.001, 0.0031]),
        bursts, st.booleans()), max_size=200))
    @settings(max_examples=200)
    def test_burst_sizes(self, ops):
        # A 3 ms window over a 1 ms resolution: a burst kept open by
        # sub-resolution steps outlives the window within four steps,
        # so bursts routinely extend one across the stale-current retire.
        opt = BurstSizeTracker(window=0.003)
        ref = ReferenceBurstSizeTracker(window=0.003)
        t = 0.0
        for dt, burst, query in ops:
            t += dt
            opt.record_departure(t, sum(burst), burst[0], len(burst))
            for nbytes in burst:
                ref.record_departure(t, nbytes)
            if query:
                assert opt.max_burst_bytes(t) == ref.max_burst_bytes(t)
        assert opt.max_burst_bytes(t) == ref.max_burst_bytes(t)

    def test_burst_extends_a_stale_current_one(self):
        """The retire lands between the head packet and the rest."""
        opt = BurstSizeTracker(window=0.003)
        ref = ReferenceBurstSizeTracker(window=0.003)
        for t in (0.0, 0.0009, 0.0018, 0.0027):
            opt.record_departure(t, 1000)
            ref.record_departure(t, 1000)
        # 0.6 ms after the last departure (same burst), 3.3 ms after
        # its start (stale): the head is retired with it, the rest stay.
        opt.record_departure(0.0033, 600, 100, 3)
        for nbytes in (100, 200, 300):
            ref.record_departure(0.0033, nbytes)
        assert opt.max_burst_bytes(0.0033) == 500
        assert ref.max_burst_bytes(0.0033) == 500


# -- teller + updater: burst drain == per-packet drain --------------------

FLOWS = [FiveTuple("server", "client", 1000 + i, 2000 + i) for i in range(2)]

datapath_ops = st.one_of(
    st.tuples(st.just("data"), st.integers(0, 1), bursts),
    st.tuples(st.just("txop"), st.integers(1, 16)),
    st.tuples(st.just("ack"), st.integers(0, 1)),
    st.tuples(st.sampled_from(["passthrough", "reset"])),
)


class _Stack:
    """A ZhugeAP over one queue, drained by bursts or packet by packet."""

    def __init__(self, kind, per_packet, burst_correction, distributional,
                 use_tokens, token_ttl):
        self.sim = Simulator()
        self.queue = make_queue(kind, capacity_bytes=60_000)
        self.ap = ZhugeAP(self.sim, self.queue, rng=DeterministicRandom(9))
        self.per_packet = per_packet
        self.updaters = []
        for flow in FLOWS:
            self.ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
            updater = self.ap.updaters[flow]
            updater.distributional = distributional
            updater.use_tokens = use_tokens
            updater.token_history.ttl = token_ttl
            updater.fortune_teller.burst_correction = burst_correction
            self.updaters.append(updater)
        self.log = []
        self.sent = 0

    def step(self, t, op):
        self.sim.now = t
        kind = op[0]
        if kind == "data":
            for nbytes in op[2]:
                self.sent += 1
                packet = Packet(FLOWS[op[1]], nbytes, pkt_id=self.sent)
                self.ap.on_downlink(packet)
                fortune = self.updaters[op[1]].fortune_teller.last_prediction
                self.log.append((fortune.q_long, fortune.q_short, fortune.tx))
                self.queue.enqueue(packet, t)
        elif kind == "txop":
            if self.per_packet:
                sent = []
                while len(sent) < op[1]:
                    packet = self.queue.dequeue(t)
                    if packet is None:  # empty, or an AQM dropped the rest
                        break
                    sent.append(packet)
            else:
                sent = self.queue.dequeue_burst(t, op[1], 1 << 30)
            self.log.append([p.pkt_id for p in sent])
        elif kind == "ack":
            self.log.append(self.updaters[op[1]].ack_delay(t))
        elif kind == "passthrough":
            for updater in self.updaters:
                updater.passthrough = not updater.passthrough
        else:
            self.ap.reset_state()

    def fingerprint(self):
        tellers = {id(u.fortune_teller): u.fortune_teller
                   for u in self.updaters}.values()
        return (self.log,
                [[e.ops for e in (t.tx_rate, t.tx_rate_long,
                                  t.dequeue_intervals, t.burst_tracker)]
                 for t in tellers],
                [(u.delta_history.ops, u.outstanding_tokens,
                  u.pending_delta_count, u.token_history.expired,
                  u.delta_history.rng.random()) for u in self.updaters])


class TestBurstDrainEqualsPerPacketDrain:
    @given(st.lists(st.tuples(burst_steps, datapath_ops), max_size=120),
           st.sampled_from(["fifo", "codel", "fq_codel"]),
           st.tuples(st.booleans(), st.booleans(), st.booleans(),
                     st.sampled_from([None, 0.02])))
    @settings(max_examples=150, deadline=None)
    def test_identical_fortunes_delays_rng_and_ops(self, ops, kind, config):
        """Same schedule, two drains: identical ``(q_long, q_short,
        tx)``, ACK delays, departures, RNG position and ``.ops``."""
        burst = _Stack(kind, False, *config)
        single = _Stack(kind, True, *config)
        t = 0.0
        for dt, op in ops:
            t += dt
            burst.step(t, op)
            single.step(t, op)
        assert burst.fingerprint() == single.fingerprint()
