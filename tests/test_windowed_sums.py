"""Windowed float sums are taken on read, bit-identical to the running sums.

The estimators keep no running float sum: ``DequeueIntervalEstimator``
caches its mean until the window changes, and ``DelayDeltaHistory.mean``,
``TokenBank.total`` and the watchdog's ``mean_error`` take ``math.fsum``
of the live window when read.  The running exact sums they replace are
kept verbatim in ``tests/reference_sums.py``; random schedules of every
call drive both and compare each read with ``float.hex``.

Both sides round the exact sum of the live window half-to-even, so the
only difference that can be reached is the sign of an all-zero mean: on
Pythons whose ``math.fsum`` keeps the sign of an all-``-0.0`` input the
new side returns ``-0.0`` where ``ExactFloatSum`` returns ``0.0``.  No
datapath input produces it — deltas are differences of non-negative
predictions, tokens are negated negative deltas and errors are ``abs``
— so the schedules draw no ``-0.0``.
"""

import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback_updater import FeedbackKind
from repro.core.prediction_join import PredictionJoin
from repro.core.sliding_window import (
    DelayDeltaHistory,
    DequeueIntervalEstimator,
    TokenBank,
)
from repro.core.zhuge_ap import ZhugeAP
from repro.faults.spec import WatchdogConfig
from repro.faults.watchdog import EstimatorHealthWatchdog
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from tests.reference_sums import (
    ExactFloatSum,
    SummingDelayDeltaHistory,
    SummingDequeueIntervalEstimator,
    SummingTokenBank,
    SummingWatchdog,
)

# Values from 1e-9 to 1e3, so the old sum rescales its fixed point
# (a value finer than any seen so far) as well as adding in place, and
# decimal fractions whose naive float sum is off by an ulp.
values = st.one_of(
    st.sampled_from([0.0, 1e-9, 0.1, 0.2, 0.3, 1 / 3, 123.456, 1e3]),
    st.floats(min_value=1e-9, max_value=1e3,
              allow_nan=False, allow_infinity=False),
)
# Zero steps, sub-millisecond steps, window-boundary steps and gaps
# longer than any window; most steps keep several entries in window.
steps = st.one_of(
    st.sampled_from([0.0, 1e-9, 0.0005, 0.001, 0.005, 0.035, 0.040,
                     0.0401, 1.0, 1e3]),
    st.floats(min_value=0.0, max_value=0.05,
              allow_nan=False, allow_infinity=False),
)
windows = st.sampled_from([0.040, 1.0, 1e4])


def same(new: float, old: float) -> bool:
    return new.hex() == old.hex()


class TestExactFloatSum:
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                              allow_nan=False), max_size=100),
           st.integers(min_value=0, max_value=100))
    def test_matches_fsum_after_prefix_removal(self, values, drop):
        """Windowed usage: add all, expire a prefix -> exact remainder."""
        drop = min(drop, len(values))
        acc = ExactFloatSum()
        for v in values:
            acc.add(v)
        for v in values[:drop]:
            acc.subtract(v)
        assert acc.value() == math.fsum(values[drop:])

    def test_empty_is_exact_zero(self):
        acc = ExactFloatSum()
        acc.add(0.1)
        acc.add(0.2)
        acc.subtract(0.1)
        acc.subtract(0.2)
        assert acc.value() == 0.0


class TestReadSumsMatchRunningSums:
    @given(windows, st.sampled_from([1e-9, 0.001]),
           st.sampled_from([0.030, 1e3]),
           st.lists(st.tuples(steps, st.integers(min_value=0, max_value=4),
                              st.booleans()), min_size=4, max_size=150),
           st.none() | st.integers(min_value=1, max_value=30))
    @settings(max_examples=300)
    def test_dequeue_intervals(self, window, min_interval, max_interval,
                               ops, reset_at):
        """``count`` same-instant departures (none: a bare prediction),
        each optionally followed by a prediction at the same instant; a
        departure whose interval does not qualify (an idle gap above
        ``max_interval``) can still expire the window."""
        new = DequeueIntervalEstimator(window, min_interval, max_interval)
        old = SummingDequeueIntervalEstimator(window, min_interval,
                                              max_interval)
        t = 0.0
        for i, (dt, count, query) in enumerate(ops):
            if i == reset_at:
                new.reset()
                old.reset()
            t += dt
            if count:
                new.record_departure(t, count)
                old.record_departure(t, count)
            if query or not count:
                assert same(new.average_interval(t),
                            old.average_interval(t))
        assert new.ops == old.ops

    @given(windows, st.integers(min_value=0, max_value=2**32),
           st.lists(st.one_of(
               st.tuples(st.just("push"), steps, values),
               st.tuples(st.just("sample"), steps),
               st.tuples(st.just("mean"), steps),
               st.tuples(st.just("clear"))), min_size=4, max_size=200))
    @settings(max_examples=300)
    def test_delay_delta_history(self, window, seed, ops):
        new = DelayDeltaHistory(window, DeterministicRandom(seed))
        old = SummingDelayDeltaHistory(window, DeterministicRandom(seed))
        t = 0.0
        for op in ops:
            if op[0] == "push":
                t += op[1]
                new.push(t, op[2])
                old.push(t, op[2])
            elif op[0] == "sample":
                t += op[1]
                assert same(new.sample(t), old.sample(t))
            elif op[0] == "mean":
                t += op[1]
                assert same(new.mean(t), old.mean(t))
            else:
                new.clear()
                old.clear()
            assert len(new) == len(old)
        assert new.ops == old.ops

    @given(st.sampled_from([1, 3, 65536]),
           st.sampled_from([None, 0.040, 1.0]),
           st.lists(st.one_of(
               st.tuples(st.just("append"), steps, values),
               st.tuples(st.just("spend"), values),
               st.tuples(st.just("expire"), steps),
               st.tuples(st.just("popleft")),
               st.tuples(st.just("total")),
               st.tuples(st.just("clear"))), min_size=4, max_size=200))
    @settings(max_examples=300)
    def test_token_bank(self, cap, ttl, ops):
        new = TokenBank(max_entries=cap, ttl=ttl)
        old = SummingTokenBank(max_entries=cap, ttl=ttl)
        t = 0.0
        for op in ops:
            if op[0] == "append":
                t += op[1]
                new.append(op[2], t)
                old.append(op[2], t)
            elif op[0] == "spend":
                # Amounts above, below and equal to the front token:
                # partial spends rewrite it, full ones pop it.
                assert same(new.spend(op[1]), old.spend(op[1]))
            elif op[0] == "expire":
                t += op[1]
                assert new.expire(t) == old.expire(t)
            elif op[0] == "popleft":
                if old:
                    assert same(new.popleft(), old.popleft())
            elif op[0] == "total":
                assert same(new.total, old.total)
            else:
                new.clear()
                old.clear()
            assert [v.hex() for v in new] == [v.hex() for v in old]
            assert (new.capped, new.expired) == (old.capped, old.expired)
        assert same(new.total, old.total)

    @given(st.sampled_from([0.040, 1.0]),
           st.lists(st.one_of(
               st.tuples(st.just("deliver"), steps, values, values),
               st.tuples(st.just("mean")),
               st.tuples(st.just("recent"), steps),
               st.tuples(st.just("reset"))), min_size=4, max_size=150))
    @settings(max_examples=200)
    def test_watchdog_error_window(self, health_window, ops):
        config = WatchdogConfig(health_window=health_window)
        sim = Simulator()
        new = EstimatorHealthWatchdog(sim, PredictionJoin(sim), config)
        old = SummingWatchdog(sim, PredictionJoin(sim), config)
        for op in ops:
            if op[0] == "deliver":
                sim._now += op[1]
                new.note_delivery(op[2], op[3])
                old.note_delivery(op[2], op[3])
            elif op[0] == "mean":
                assert same(new.mean_error, old.mean_error)
            elif op[0] == "recent":
                sim._now += op[1]
                assert new.recent_errors() == old.recent_errors()
            else:
                new.notify_reset()
                old.notify_reset()
            assert new.transitions == old.transitions
        assert same(new.mean_error, old.mean_error)


class TestNonFiniteRefused:
    """A NaN or infinite delta or token is refused at the door, naming
    it: no running sum is left to trip over it later."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_delta_history_push(self, bad):
        history = DelayDeltaHistory()
        history.push(0.0, 0.002)
        with pytest.raises(ValueError, match=f"{bad}$"):
            history.push(0.001, bad)
        assert len(history) == 1
        assert history.mean(0.001) == 0.002

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_token_bank_append(self, bad):
        bank = TokenBank()
        bank.append(0.003, 0.0)
        with pytest.raises(ValueError, match=f"{bad}$"):
            bank.append(bad, 0.001)
        assert list(bank) == [0.003]
        assert bank.total == 0.003


def datapath_c_calls(rounds: int = 200) -> tuple[Counter, int]:
    """Builtin calls of a 4-flow out-of-band datapath: per round, 8 data
    packets, one AMPDU departure burst and 8 delayed ACKs."""
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=10_000_000)
    ap = ZhugeAP(sim, queue, rng=DeterministicRandom(1))
    flows = [FiveTuple("server", "client", 1000 + i, 2000 + i)
             for i in range(4)]
    for flow in flows:
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
    reverse = [flow.reversed() for flow in flows]
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            calls[getattr(arg, "__name__", "")] += 1

    jitter = random.Random(7)
    now = 0.0
    sys.setprofile(profile)
    try:
        for _ in range(rounds):
            sim._now = now
            for i in range(8):
                packet = Packet(flows[i % 4], 1200)
                queue.enqueue(packet, now)
                ap.on_downlink(packet)
            sim._now = now + 0.002
            assert len(queue.dequeue_burst(sim._now, 8, 1 << 20)) == 8
            sim._now = now + 0.003
            for i in range(8):
                ap.on_uplink(Packet(reverse[i % 4], ACK_SIZE,
                                    PacketKind.ACK))
            now += 0.004 + jitter.uniform(0.0, 0.004)
    finally:
        sys.setprofile(None)
    assert ap.hotpath_stats()[-1].acks_delayed == rounds * 8
    return calls, rounds


def test_datapath_sums_nothing_per_packet():
    """No big-int sum on the datapath, and the interval mean is re-summed
    at most once per departure burst (predictions between bursts read
    the cached mean)."""
    calls, bursts = datapath_c_calls()
    assert calls["as_integer_ratio"] == 0
    assert 0 < calls["fsum"] <= bursts
