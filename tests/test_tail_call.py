"""``Simulator.tail_call`` and the dispatches it saves.

A tail call runs its callback inline only when ``schedule(0.0, ...)``
would have made it the very next dispatch; every other case must keep
the deferred ``(time, seq)`` order.  Each of the three quiet conditions
is checked against a seeded mutant ``tail_call`` that drops it.
"""

from collections import Counter

import pytest

from repro.campaign import ScenarioSpec, TraceSpec
from repro.sim.engine import Simulator
from repro.topology.builder import TopologyBuilder
from repro.transport.rtp import RtpReceiver

CONDITIONS = ("bucket", "heap", "run")


def _mutant(dropped: str) -> type:
    """A ``Simulator`` whose ``tail_call`` ignores one quiet condition."""

    def tail_call(self, callback):
        now, run = self._now, self._run
        quiet = {
            "bucket": not self._ready,
            "heap": not self._heap or self._heap[0][0] > now,
            "run": (run is None or run._head == len(run._times)
                    or run._times[run._head] > now),
        }
        del quiet[dropped]
        if self._running and all(quiet.values()):
            callback()
        else:
            self.schedule(0.0, callback)

    return type(f"DropsThe{dropped.title()}Check", (Simulator,),
                {"tail_call": tail_call})


def _order(sim_cls, setup, defer=False):
    """Fire order of ``setup``'s callbacks; ``defer`` swaps every tail
    call for the ``schedule(0.0, ...)`` it stands for."""
    sim = sim_cls()
    log = []
    tail = ((lambda cb: sim.schedule(0.0, cb)) if defer
            else sim.tail_call)
    setup(sim, log, tail)
    sim.run()
    return log, sim.events_processed


def _quiet(sim, log, tail):
    sim.call_at(1.0, lambda: (log.append("a"), tail(lambda: log.append("b"))))
    sim.call_at(2.0, lambda: log.append("later"))


def _bucket_entry(sim, log, tail):
    def a():
        log.append("a")
        sim.schedule(0.0, lambda: log.append("bucket"))
        tail(lambda: log.append("b"))
    sim.call_at(1.0, a)


def _same_instant_heap_entry(sim, log, tail):
    sim.call_at(1.0, lambda: (log.append("a"), tail(lambda: log.append("b"))))
    sim.call_at(1.0, lambda: log.append("heap"))


def _run_item_at_now(sim, log, tail):
    def fn(payload):
        log.append(payload)
        if payload == "x":
            tail(lambda: log.append("b"))
    run = sim.timed_run(fn)
    run.push(1.0, "x")
    run.push(1.0, "y")


SCENARIOS = {"bucket": _bucket_entry, "heap": _same_instant_heap_entry,
             "run": _run_item_at_now}


class TestTailCall:
    def test_runs_inline_on_a_quiet_instant(self):
        log, events = _order(Simulator, _quiet)
        assert log == ["a", "b", "later"]
        assert events == 2          # ``b`` was part of ``a``'s dispatch
        assert _order(Simulator, _quiet, defer=True) == (log, 3)

    def test_runs_inline_between_run_items_at_later_instants(self):
        def setup(sim, log, tail):
            def fn(payload):
                log.append(payload)
                if payload == "x":
                    tail(lambda: log.append("b"))
            run = sim.timed_run(fn)
            run.push(1.0, "x")
            run.push(2.0, "y")
        assert _order(Simulator, setup) == (["x", "b", "y"], 2)

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_defers_in_exact_order(self, condition):
        """A bucket entry, a same-instant heap entry or the dispatching
        run's next item at ``now`` fires first, exactly as it would
        ahead of ``schedule(0.0, ...)``."""
        setup = SCENARIOS[condition]
        deferred, _ = _order(Simulator, setup, defer=True)
        assert _order(Simulator, setup) == (deferred, len(deferred))
        assert deferred[-1] == "b"

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_mutant_without_the_check_reorders(self, condition):
        """Each condition is load-bearing: the mutant that drops it
        runs ``b`` ahead of the entry that should fire first."""
        setup = SCENARIOS[condition]
        deferred, _ = _order(Simulator, setup, defer=True)
        mutated, _ = _order(_mutant(condition), setup)
        assert mutated != deferred
        for other in CONDITIONS:
            if other != condition:   # the other scenarios still pass
                assert _order(_mutant(condition), SCENARIOS[other])[0] \
                    == _order(Simulator, SCENARIOS[other], defer=True)[0]

    def test_outside_run_it_schedules(self):
        sim = Simulator()
        log = []
        sim.tail_call(lambda: log.append("b"))
        assert log == [] and sim.pending() == 1
        sim.run()
        assert log == ["b"]

    def test_inline_call_does_not_count_toward_max_events(self):
        sim = Simulator()
        log = []
        _quiet(sim, log, sim.tail_call)
        sim.run(max_events=1)
        assert log == ["a", "b"] and sim.events_processed == 1


def _headline_run(monkeypatch):
    """2 s of the headline scenario (W1, rtp/gcc, Zhuge, fifo, no
    interferers), counting the events created per callback and the
    NACK ticks run."""
    created = Counter()
    real_schedule, real_call_at = Simulator.schedule, Simulator.call_at

    def schedule(self, delay, callback):
        created[callback.__name__] += 1
        return real_schedule(self, delay, callback)

    def call_at(self, time, callback):
        created[callback.__name__] += 1
        return real_call_at(self, time, callback)

    real_tick = RtpReceiver._nack_tick

    def nack_tick(self):
        created["nack ticks run"] += 1
        real_tick(self)

    monkeypatch.setattr(Simulator, "schedule", schedule)
    monkeypatch.setattr(Simulator, "call_at", call_at)
    monkeypatch.setattr(RtpReceiver, "_nack_tick", nack_tick)
    spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=2.0,
                                                   seed=1),
                        protocol="rtp", cca="gcc", ap_mode="zhuge",
                        queue_kind="fifo", duration=2.0, warmup=0.5)
    builder = TopologyBuilder(spec)
    builder.run()
    return builder, created


class TestHeadlineScenarioCounts:
    def test_no_event_per_txop_and_no_idle_nack_tick(self, monkeypatch):
        """Every zero-delay txop transmit ran as a tail call (the old
        code scheduled one ``_transmit_ampdu`` event per txop), and a
        loss-free receiver ran no NACK tick (the old timer ran 133)."""
        builder, created = _headline_run(monkeypatch)
        receiver = builder._rtc[0].receiver
        assert builder.edges["down"].link.txops > 100
        assert created["_transmit_ampdu"] == 0
        # Loss-free: every seq arrived, in order, once.
        assert receiver.packets_received == receiver._highest_seq + 1 > 100
        assert receiver.nacks_sent == 0
        assert created["nack ticks run"] == 0
