"""``Simulator.post`` and the dispatches it saves.

A post runs its callback in place — when the current dispatch returns —
only when ``schedule(0.0, ...)`` would have made it the very next
dispatch; every other case must keep the deferred ``(time, seq)``
order.  Each of the two "nothing older at ``now``" checks is held
against a seeded mutant ``post`` that drops it.
"""

from collections import Counter

import pytest

from repro.app.video import RtpVideoApp
from repro.campaign import ScenarioSpec, TraceSpec
from repro.net.link import WiredLink
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator, Timer
from repro.topology.builder import TopologyBuilder
from repro.transport.rtp import RtpReceiver
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink

pytestmark = pytest.mark.bitexact


def _mutant(dropped: str) -> type:
    """A ``Simulator`` whose ``post`` ignores one of its two checks."""

    def post(self, callback):
        now, heap, run = self.now, self._heap, self._run
        quiet = {
            "heap": not heap or heap[0][0] > now,
            "run": (run is None or run._head == len(run._times)
                    or run._times[run._head] > now),
        }
        del quiet[dropped]
        if self._running and all(quiet.values()):
            self._posted.append(callback)
        else:
            self.schedule(0.0, callback)

    return type(f"DropsThe{dropped.title()}Check", (Simulator,),
                {"post": post})


def _order(sim_cls, setup, defer=False):
    """Fire order of ``setup``'s callbacks; ``defer`` swaps every post
    for the ``schedule(0.0, ...)`` it stands for."""
    sim = sim_cls()
    log = []
    post = (lambda cb: sim.schedule(0.0, cb)) if defer else sim.post
    setup(sim, log, post)
    sim.run()
    return log, sim.events_processed


def _quiet(sim, log, post):
    sim.call_at(1.0, lambda: (log.append("a"), post(lambda: log.append("b"))))
    sim.call_at(2.0, lambda: log.append("later"))


def _zero_delay_entry(sim, log, post):
    def a():
        log.append("a")
        sim.schedule(0.0, lambda: log.append("zero"))
        post(lambda: log.append("b"))
    sim.call_at(1.0, a)


def _same_instant_heap_entry(sim, log, post):
    sim.call_at(1.0, lambda: (log.append("a"), post(lambda: log.append("b"))))
    sim.call_at(1.0, lambda: log.append("heap"))


def _run_item_at_now(sim, log, post):
    def fn(payload):
        log.append(payload)
        if payload == "x":
            post(lambda: log.append("b"))
    run = sim.timed_run(fn)
    run.push(1.0, "x")
    run.push(1.0, "y")


#: scenario -> (its setup, the check that must defer the post there).
SCENARIOS = {"zero_delay": (_zero_delay_entry, "heap"),
             "heap": (_same_instant_heap_entry, "heap"),
             "run": (_run_item_at_now, "run")}


class TestPost:
    def test_runs_in_place_on_a_quiet_instant(self):
        log, events = _order(Simulator, _quiet)
        assert log == ["a", "b", "later"]
        assert events == 2          # ``b`` was part of ``a``'s dispatch
        assert _order(Simulator, _quiet, defer=True) == (log, 3)

    def test_runs_in_place_between_run_items_at_later_instants(self):
        def setup(sim, log, post):
            def fn(payload):
                log.append(payload)
                if payload == "x":
                    post(lambda: log.append("b"))
            run = sim.timed_run(fn)
            run.push(1.0, "x")
            run.push(2.0, "y")
        assert _order(Simulator, setup) == (["x", "b", "y"], 2)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_defers_in_exact_order(self, scenario):
        """An earlier zero-delay schedule, a same-instant heap entry or
        the dispatching run's next item at ``now`` fires first, exactly
        as it would ahead of ``schedule(0.0, ...)``."""
        setup, _check = SCENARIOS[scenario]
        deferred, _ = _order(Simulator, setup, defer=True)
        assert _order(Simulator, setup) == (deferred, len(deferred))
        assert deferred[-1] == "b"

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_mutant_without_the_check_reorders(self, scenario):
        """Each check is load-bearing: the mutant that drops it runs
        ``b`` ahead of the entry that should fire first, and still
        passes the scenarios that only the other check guards."""
        setup, check = SCENARIOS[scenario]
        mutant = _mutant(check)
        deferred, _ = _order(Simulator, setup, defer=True)
        assert _order(mutant, setup)[0] != deferred
        for other, guard in SCENARIOS.values():
            if guard != check:
                assert _order(mutant, other)[0] \
                    == _order(Simulator, other, defer=True)[0]

    def test_posts_keep_fifo_order(self):
        """Posts drain in the order they were made, a post made by a
        posted callback after those already waiting."""
        def setup(sim, log, post):
            def a():
                log.append("a")
                post(lambda: (log.append("b"),
                              post(lambda: log.append("e"))))
                post(lambda: log.append("c"))
                post(lambda: log.append("d"))
            sim.call_at(1.0, a)
            sim.call_at(2.0, lambda: log.append("later"))
        deferred, _ = _order(Simulator, setup, defer=True)
        assert deferred == ["a", "b", "c", "d", "e", "later"]
        assert _order(Simulator, setup) == (deferred, 2)

    def test_outside_run_it_schedules(self):
        sim = Simulator()
        log = []
        sim.post(lambda: log.append("b"))
        assert log == [] and sim.pending() == 1
        sim.run()
        assert log == ["b"] and sim.events_processed == 1

    def test_in_place_run_does_not_count_toward_max_events(self):
        sim = Simulator()
        log = []
        _quiet(sim, log, sim.post)
        sim.run(max_events=1)
        assert log == ["a", "b"] and sim.events_processed == 1

    def test_a_raising_post_leaves_the_rest_pending(self):
        sim = Simulator()
        log = []

        def boom():
            raise RuntimeError("boom")

        def a():
            sim.post(boom)
            sim.post(lambda: log.append("b"))
            sim.post(lambda: log.append("c"))
        sim.call_at(1.0, a)
        sim.call_at(1.5, lambda: log.append("later"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert log == [] and sim.pending() == 3
        assert sim.peek() == sim.now == 1.0
        sim.run()
        assert log == ["b", "c", "later"] and sim.pending() == 0


class _KickedWirelessLink(WirelessLink):
    """The kick before posts: a ``schedule(0.0)`` event."""

    def send(self, packet):
        if not self.queue.enqueue(packet, self.sim.now):
            return
        if self._air_end is not None:
            self._resolve_air_end()
        if not self._serving and not self.blocked:
            self._serving = True
            self.sim.schedule(0.0, self._serve_txop)


class _EagerSimulator(Simulator):
    """A broken ``post`` that runs the callback at once."""

    def post(self, callback):
        callback()


def _wired_into_wireless(sim_cls, link_cls, packets=6):
    """``packets`` same-instant sends join one delay-line burst; its
    delivery feeds an idle wireless link packet by packet."""
    sim = sim_cls()
    wired = WiredLink(sim, None, 0.01)
    trace = TraceSpec.constant(20e6, 1.0).build()
    wireless = link_cls(sim, WirelessChannel(trace),
                        DropTailQueue(capacity_bytes=1_000_000))
    wired.deliver_batch = lambda burst: [wireless.send(p) for p in burst]
    received = []
    wireless.deliver_batch = lambda burst: received.append(
        [(sim.now, p.seq) for p in burst])
    flow = FiveTuple("s", "c", 1, 2, "udp")
    sim.call_at(0.0, lambda: [wired.send(Packet(flow, 1200, seq=i))
                              for i in range(packets)])
    sim.run()
    return received, wireless.txops, sim.events_processed


class TestPostInsideABurst:
    def test_one_ampdu_carries_the_whole_burst(self):
        """The kick posted by the burst's first packet fires after the
        whole burst, as the ``schedule(0.0)`` kick event did: one AMPDU
        carries every packet, at the same instant, for one dispatch
        fewer."""
        posted = _wired_into_wireless(Simulator, WirelessLink)
        kicked = _wired_into_wireless(Simulator, _KickedWirelessLink)
        assert posted[:2] == kicked[:2]
        assert posted[1] == 1 and len(posted[0][0]) == 6
        assert posted[2] == kicked[2] - 1

    def test_an_eager_post_splits_the_burst(self):
        received, txops, _ = _wired_into_wireless(_EagerSimulator,
                                                  WirelessLink)
        assert txops > 1 and len(received[0]) == 1


def _count_events(monkeypatch, spec, nack_ticks=False):
    """Run ``spec``, counting the events created per callback name (and
    the RTP NACK ticks run); returns the builder and the counts."""
    created = Counter()
    real_schedule, real_call_at = Simulator.schedule, Simulator.call_at

    def schedule(self, delay, callback):
        created[getattr(callback, "__name__", "?")] += 1
        return real_schedule(self, delay, callback)

    def call_at(self, time, callback):
        created[getattr(callback, "__name__", "?")] += 1
        return real_call_at(self, time, callback)

    monkeypatch.setattr(Simulator, "schedule", schedule)
    monkeypatch.setattr(Simulator, "call_at", call_at)
    if nack_ticks:
        real_tick = RtpReceiver._nack_tick

        def nack_tick(self):
            created["nack ticks run"] += 1
            real_tick(self)

        monkeypatch.setattr(RtpReceiver, "_nack_tick", nack_tick)
    builder = TopologyBuilder(spec)
    builder.run()
    return builder, created


class TestScenarioCounts:
    def test_no_event_per_txop_and_no_idle_nack_tick(self, monkeypatch):
        """2 s of the headline scenario (W1, rtp/gcc, Zhuge, fifo): every
        zero-delay txop transmit ran in place (the first fast path
        scheduled one ``_transmit_ampdu`` event per txop), and a
        loss-free receiver ran no NACK tick (the old timer ran 133)."""
        spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=2.0,
                                                       seed=1),
                            protocol="rtp", cca="gcc", ap_mode="zhuge",
                            queue_kind="fifo", duration=2.0, warmup=0.5)
        builder, created = _count_events(monkeypatch, spec, nack_ticks=True)
        receiver = builder.forwarding.rtc[0].receiver
        assert builder.edges["down"].link.txops > 100
        assert created["_transmit_ampdu"] == 0
        # Loss-free: every seq arrived, in order, once.
        assert receiver.packets_received == receiver._highest_seq + 1 > 100
        assert receiver.nacks_sent == 0
        assert created["nack ticks run"] == 0

    def test_no_idle_kick_event_under_contention(self, monkeypatch):
        """3 s of W2 tcp/copa over CoDel with 2 CUBIC competitors: every
        idle-link kick ran in place (a ``schedule(0.0)`` kick made one
        ``_serve_txop`` event each)."""
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=3.0,
                                                       seed=1),
                            protocol="tcp", cca="copa", ap_mode="zhuge",
                            queue_kind="codel", competitors=2,
                            duration=3.0, warmup=0.5)
        builder, created = _count_events(monkeypatch, spec)
        assert builder.edges["down"].link.txops > 100
        assert created["_serve_txop"] == 0
        assert created["_transmit_ampdu"] == 0

    def test_no_finish_finds_an_idle_link(self, monkeypatch):
        """3 s of W2 tcp/copa over CoDel with 2 CUBIC competitors: every
        ``_finish`` dispatch grants a txop.  A txop that leaves the
        queue empty plants no finish, where one dispatched anyway only
        to mark the link idle (~47 % of the txops on the full cell)."""
        finishes, idle = [], []
        real_finish = WirelessLink._finish

        def finish(self, payload):
            finishes.append(self.sim.now)
            if self.queue.is_empty and not self.blocked:
                idle.append(self.sim.now)
            real_finish(self, payload)

        monkeypatch.setattr(WirelessLink, "_finish", finish)
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=3.0,
                                                       seed=1),
                            protocol="tcp", cca="copa", ap_mode="zhuge",
                            queue_kind="codel", competitors=2,
                            duration=3.0, warmup=0.5)
        builder = TopologyBuilder(spec)
        builder.run()
        assert builder.edges["down"].link.txops > 100
        assert len(finishes) > 100
        assert idle == []

    def test_no_burst_item_at_an_encode_instant(self, monkeypatch):
        """3 s of the ledger's headline cell (2-flow W1 rtp/gcc, Zhuge,
        fifo): each frame's head goes out as a post of its encode tick,
        so the frame's ``_burst`` run fires only at the later packets'
        instants (a head run item cost 0.045 dispatches per packet on
        the full cell)."""
        encoded = set()
        real_tick = RtpVideoApp._encode_tick

        def tick(self):
            encoded.add(self.sim.now)
            real_tick(self)

        monkeypatch.setattr(RtpVideoApp, "_encode_tick", tick)
        spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=3.0,
                                                       seed=1),
                            protocol="rtp", cca="gcc", ap_mode="zhuge",
                            queue_kind="fifo", rtc_flows=2, duration=3.0,
                            seed=1)
        builder = TopologyBuilder(spec)
        sim, fired = builder.sim, []
        for _, _, app in builder.video_apps:
            app._burst.fn = lambda item, fn=app._burst.fn: (
                fired.append(sim.now), fn(item))[1]
        builder.run()
        assert len(encoded) > 60 and len(fired) > 500
        assert encoded.isdisjoint(fired)

    def test_in_phase_timers_leave_no_kick_event(self, monkeypatch):
        """3 s of the ledger's headline cell (2-flow W1 rtp/gcc, Zhuge,
        fifo).  Each 40 ms feedback instant — two ``RtpReceiver``s and
        two ``InBandFeedbackUpdater``s ticking in phase — is one tick
        group dispatch, so the uplink kick the first one posts finds no
        other timer waiting at ``now`` and runs in place (one event per
        tick left 8.5 k ``_serve_txop`` events on the full cell).  The
        first instant is the exception: the builder plants the four
        first ticks between the encoders' and the stale-frame skip's, so they
        join no common group, and one kick waits behind the rest."""
        dispatches = []     # (instant, timer callbacks run) per group
        kicks = []          # instants a ``_serve_txop`` event was made at
        real_dispatch, real_fire = Simulator._dispatch_group, Timer._fire
        real_schedule = Simulator.schedule

        def dispatch(self, group):
            dispatches.append((group.time, []))
            return real_dispatch(self, group)

        def fire(self):
            dispatches[-1][1].append(self._callback.__qualname__)
            real_fire(self)

        def schedule(self, delay, callback):
            if getattr(callback, "__name__", "") == "_serve_txop":
                kicks.append(self.now)
            return real_schedule(self, delay, callback)

        monkeypatch.setattr(Simulator, "_dispatch_group", dispatch)
        monkeypatch.setattr(Timer, "_fire", fire)
        monkeypatch.setattr(Simulator, "schedule", schedule)
        spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=3.0,
                                                       seed=1),
                            protocol="rtp", cca="gcc", ap_mode="zhuge",
                            queue_kind="fifo", rtc_flows=2, duration=3.0,
                            seed=1)
        builder = TopologyBuilder(spec)
        builder.run()
        assert builder.edges["down"].link.txops > 100
        fed = Counter()         # instant -> feedback ticks
        groups = Counter()      # instant -> dispatches that fed back
        for time, names in dispatches:
            ticks = sum(name.endswith("._emit_feedback") for name in names)
            if ticks:
                fed[time] += ticks
                groups[time] += 1
        first, *rest = sorted(groups)
        assert kicks == [first] == [0.04]
        assert len(rest) == 73 and set(fed.values()) == {4}
        assert groups[first] == 3 and {groups[t] for t in rest} == {1}
