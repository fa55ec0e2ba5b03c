"""Fault layer: specs, watchdog, injector determinism, degradation.

Covers the robustness acceptance criteria:

* an empty :class:`FaultPlan` is the identity — spec payloads and
  hashes are byte-identical to no plan at all;
* a faulted cell is bit-identical whether computed serially, in a
  worker pool, or replayed from the result cache;
* mid-run estimator resets never emit negative or non-monotonic ACK
  release times;
* under a blackout + AP reset, the watchdog demotes Zhuge to
  passthrough within its hysteresis bound and the fault-window delay is
  no worse than the passthrough baseline;
* fault trace events validate against the pinned Chrome schema.
"""

import dataclasses
import threading

import pytest

import repro.faults.watchdog as watchdog
from repro.campaign import ResultCache, ScenarioSpec, TraceSpec, run_specs
from repro.campaign.summary import ScenarioSummary
from repro.core.feedback_updater import OutOfBandFeedbackUpdater
from repro.core.fortune_teller import FortuneTeller
from repro.core.prediction_join import PredictionJoin
from repro.core.sliding_window import MAX_TOKENS, TokenBank
from repro.faults import (STATE_DEGRADED, STATE_HEALTHY,
                          EstimatorHealthWatchdog, FaultPlan, FaultSpec)
from repro.net.packet import FiveTuple
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.builder import TopologyBuilder
from repro.topology.presets import roaming_topology


class TestFaultSpec:
    def test_aliases_resolve(self):
        assert FaultSpec(kind="loss", start=1.0, duration=1.0).kind == \
            "loss_burst"
        assert FaultSpec(kind="crash", start=1.0, duration=1.0).kind == \
            "rate_crash"
        assert FaultSpec(kind="reset", start=1.0).kind == "ap_reset"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor", start=1.0)

    def test_windowed_kinds_need_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="blackout", start=1.0)

    def test_reset_duration_normalized_to_zero(self):
        assert FaultSpec(kind="ap_reset", start=1.0, duration=3.0) \
            .duration == 0.0

    def test_default_magnitudes_and_targets(self):
        loss = FaultSpec(kind="loss_burst", start=0.0, duration=1.0)
        assert loss.magnitude == 0.5
        assert loss.target == "down"
        blackout = FaultSpec(kind="blackout", start=0.0, duration=1.0)
        assert blackout.magnitude is None
        assert blackout.target == "both"

    def test_magnitude_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="loss_burst", start=0.0, duration=1.0,
                      magnitude=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="rate_crash", start=0.0, duration=1.0,
                      magnitude=1.0)

    def test_round_trip(self):
        spec = FaultSpec(kind="loss_burst", start=2.0, duration=1.5,
                         magnitude=0.3, target="up")
        assert FaultSpec.from_dict(spec.as_dict()) == spec


class TestFaultPlan:
    def test_parse_dsl(self):
        plan = FaultPlan.parse("blackout@10+1,reset@11,"
                               "loss@5+2*0.3/up,crash@20+4*0.1")
        kinds = [f.kind for f in plan.faults]
        assert kinds == ["blackout", "ap_reset", "loss_burst", "rate_crash"]
        loss = plan.faults[2]
        assert (loss.start, loss.duration, loss.magnitude, loss.target) == \
            (5.0, 2.0, 0.3, "up")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("blackout10")

    def test_round_trip(self):
        plan = FaultPlan.parse("blackout@10+1,loss@5+2*0.3/up", seed=7,
                               watchdog_enabled=False)
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_unknown_keys_refused_by_name(self):
        """A misspelt key used to be dropped: ``watchdog_enable: false``
        ran with the watchdog on. A ``watchdog`` settings dict is refused
        too: the thresholds are constants of the watchdog's module."""
        payload = FaultPlan.parse("blackout@10+1").as_dict()
        payload.update(watchdog_enable=False, sed=3,
                       watchdog={"stale_after": 0.5})
        with pytest.raises(ValueError, match=r"field\(s\): sed, watchdog, "
                                             r"watchdog_enable$"):
            FaultPlan.from_dict(payload)


@pytest.mark.bitexact
class TestSpecHashStability:
    """An empty plan must be indistinguishable from no plan at all."""

    def _spec(self, **kwargs) -> ScenarioSpec:
        return ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            duration=1.0, **kwargs)

    def test_empty_plan_normalized_to_none(self):
        assert self._spec(faults=FaultPlan()).faults is None

    def test_unfaulted_payload_has_no_faults_key(self):
        assert "faults" not in self._spec().as_dict()

    def test_empty_plan_hashes_like_no_plan(self):
        bare = self._spec()
        empty = self._spec(faults=FaultPlan())
        assert bare.as_dict() == empty.as_dict()
        assert bare.content_hash() == empty.content_hash()

    def test_faulted_spec_hashes_differently(self):
        bare = self._spec()
        faulted = self._spec(faults=FaultPlan.parse("blackout@0.2+0.1"))
        assert bare.content_hash() != faulted.content_hash()

    def test_faulted_spec_round_trips(self):
        spec = self._spec(faults=FaultPlan.parse("blackout@0.2+0.1",
                                                 seed=3))
        assert ScenarioSpec.from_dict(spec.as_dict()) == spec

    def test_unfaulted_summary_payload_unchanged(self):
        summary = ScenarioSummary(spec=self._spec())
        payload = summary.as_dict()
        assert "fault_log" not in payload
        assert "watchdog_transitions" not in payload


#: The flow the unit watchdogs' predictions belong to.
FLOW = FiveTuple("server", "client", 5000, 5001, "udp")


class TestWatchdog:
    def test_demotes_on_stale_within_bound(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        dog.join.note(1, FLOW, 0.010)  # never delivered
        sim.run(until=2.0)
        assert dog.state == STATE_DEGRADED
        when, state, reason = dog.transitions[0]
        assert (state, reason) == (STATE_DEGRADED, "stale")
        assert when <= (watchdog.STALE_AFTER + watchdog.DEMOTE_AFTER
                        + 2 * watchdog.CHECK_INTERVAL)

    def test_demotes_on_inaccurate(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        ids = iter(range(10_000))

        def feed():
            pkt = next(ids)
            dog.join.note(pkt, FLOW, 1.0)  # reality: instant delivery
            dog.join.deliver(pkt)
            sim.schedule(0.02, feed)

        sim.schedule(0.0, feed)
        sim.run(until=1.0)
        assert dog.state == STATE_DEGRADED
        assert dog.transitions[0][2] == "inaccurate"

    def test_brief_staleness_does_not_demote(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        # Delivered (accurately) just after the stale threshold but
        # before the demote delay elapses: hysteresis holds.
        delivery_at = watchdog.STALE_AFTER + 0.15
        dog.join.note(1, FLOW, delivery_at)
        sim.schedule(delivery_at, lambda: dog.join.deliver(1))
        sim.run(until=2.0)
        assert dog.state == STATE_HEALTHY
        assert dog.transitions == []

    def test_reset_demotes_immediately(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        dog.notify_reset()
        assert dog.state == STATE_DEGRADED
        assert dog.transitions[0][2] == "reset"

    def test_promotes_after_sustained_health(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        dog.notify_reset()
        ids = iter(range(10_000))

        def feed():
            pkt = next(ids)
            dog.join.note(pkt, FLOW, 0.0)  # perfectly accurate joins
            dog.join.deliver(pkt)
            sim.schedule(0.02, feed)

        sim.schedule(0.1, feed)
        sim.run(until=4.0)
        assert dog.state == STATE_HEALTHY
        assert dog.transitions[-1][1:] == (STATE_HEALTHY, "recovered")

    def test_redemote_after_promote_serves_full_dwell(self):
        """Audit pin: a promotion clears both dwell clocks, so the next
        demotion needs a *fresh* ``DEMOTE_AFTER`` window — promote must
        never inherit a stale ``_unhealthy_since`` and re-demote early.
        """
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        dog.notify_reset()  # degraded at t=0
        ids = iter(range(10_000))
        feeding = {"on": True}

        def feed():
            if not feeding["on"]:
                return
            pkt = next(ids)
            dog.join.note(pkt, FLOW, 0.0)
            dog.join.deliver(pkt)
            sim.schedule(0.02, feed)

        sim.schedule(0.1, feed)
        relapse_at = 4.0

        def relapse():
            feeding["on"] = False
            dog.join.note(99_999, FLOW, 0.010)  # never delivered

        sim.schedule(relapse_at, relapse)
        sim.run(until=8.0)
        promote_at = next(when for when, state, _ in dog.transitions
                          if state == STATE_HEALTHY)
        assert promote_at < relapse_at
        redemote_at, state, reason = dog.transitions[-1]
        assert (state, reason) == (STATE_DEGRADED, "stale")
        # Staleness starts at relapse + STALE_AFTER; the demotion may
        # fire no earlier than a full DEMOTE_AFTER after that.
        floor = relapse_at + watchdog.STALE_AFTER + watchdog.DEMOTE_AFTER
        ceiling = floor + 2 * watchdog.CHECK_INTERVAL
        assert floor <= redemote_at <= ceiling

    def test_no_promotion_without_min_samples(self, monkeypatch):
        monkeypatch.setattr(watchdog, "MIN_SAMPLES", 1000)
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim))
        dog.notify_reset()
        ids = iter(range(10_000))

        def feed():
            pkt = next(ids)
            dog.join.note(pkt, FLOW, 0.0)
            dog.join.deliver(pkt)
            sim.schedule(0.1, feed)  # ~10/s: never 1000 inside 1 s window

        sim.schedule(0.1, feed)
        sim.run(until=4.0)
        assert dog.state == STATE_DEGRADED


class TestLostPacketsDoNotStrandTheWatchdog:
    """Without a controller, a lost RTC packet's prediction is retired
    by its flow's next delivery, so neither CoDel drops nor a loss
    burst over the air reads as "deliveries stopped". W1 seed 1 fades
    to 0.3–0.6 Mb/s at 18.6–19.0 s; a correct watchdog demotes as
    ``stale`` there, and nowhere before."""

    FADE_START = 18.6

    def _run(self, queue_kind, competitors, faults):
        spec = ScenarioSpec(
            trace=TraceSpec.for_family("W1", duration=20, seed=1),
            protocol="rtp", ap_mode="zhuge", queue_kind=queue_kind,
            competitors=competitors, duration=20,
            faults=FaultPlan.parse(faults))
        builder = TopologyBuilder(spec)
        zhuge = builder.zhuge
        rtc = builder.forwarding.rtc[0].flow
        dropped = set()
        zhuge.downlink_queue.on_drop.append(
            lambda packet, reason: dropped.add(packet.pkt_id)
            if packet.flow == rtc else None)
        injector = builder.fault_injector
        loss_predicate = injector._loss_predicate

        def recording_predicate(fault, index, direction):
            drop = loss_predicate(fault, index, direction)

            def recorded(packet):
                lost = drop(packet)
                if lost and packet.flow == rtc:
                    dropped.add(packet.pkt_id)
                return lost
            return recorded

        injector._loss_predicate = recording_predicate
        last = []
        on_delivery = zhuge.on_wireless_delivery

        def delivered(packet):
            if packet.flow == rtc:
                last[:] = [packet.pkt_id]
            on_delivery(packet)

        zhuge.on_wireless_delivery = delivered
        summary = builder.run()
        # RTC packet ids rise in send order, which is the AP's note order.
        before_last = {pkt_id for pkt_id in dropped if pkt_id < last[0]}
        assert before_last
        assert not before_last & set(zhuge.predictions._open)
        assert all(when >= self.FADE_START
                   for when, _, _ in summary.watchdog_transitions)

    def test_controller_less_queue_drop_does_not_strand_the_watchdog(self):
        """The RTC flow's CoDel drops (the first at 0.79 s) used to
        leave predictions that never join: the watchdog demoted Zhuge
        as ``stale`` at 1.4 s and stayed degraded to the end."""
        self._run("codel", 2, "loss@19.5+0.01*0.01")

    def test_loss_burst_does_not_strand_the_watchdog(self):
        """30 % of the downlink lost over the air for 2 s used to demote
        at 5.9 s and never recover, 212 lost packets left open."""
        self._run("fifo", 0, "loss@5+2*0.3")


class TestTokenBank:
    def test_cap_evicts_oldest(self):
        bank = TokenBank()
        bank.set_limits(3, None)
        for value in (1.0, 2.0, 3.0, 4.0):
            bank.append(value)
        assert list(bank) == [2.0, 3.0, 4.0]
        assert bank.capped == 1
        assert bank.total == pytest.approx(9.0)

    def test_set_limits_shrink_evicts_oldest_and_counts(self):
        bank = TokenBank()
        bank.set_limits(5, None)
        for value in (1.0, 2.0, 3.0, 4.0):
            bank.append(value)
        bank.set_limits(2, 0.5)
        assert list(bank) == [3.0, 4.0]
        assert bank.capped == 2
        assert (bank.max_entries, bank.ttl) == (2, 0.5)
        bank.append(5.0)  # the new cap holds for later appends too
        assert list(bank) == [4.0, 5.0]
        assert bank.capped == 3

    @pytest.mark.parametrize("max_entries, ttl", [(0, None), (-1, None),
                                                  (1, 0.0), (1, -1.0)])
    def test_set_limits_validates_like_init(self, max_entries, ttl):
        bank = TokenBank()
        bank.set_limits(3, None)
        for value in (1.0, 2.0, 3.0):
            bank.append(value)
        with pytest.raises(ValueError):
            bank.set_limits(max_entries, ttl)
        assert list(bank) == [1.0, 2.0, 3.0] and bank.capped == 0

    def test_ttl_expiry(self):
        bank = TokenBank()
        bank.set_limits(MAX_TOKENS, 1.0)
        bank.append(1.0, now=0.0)
        bank.append(2.0, now=0.5)
        bank.expire(1.4)  # horizon 0.4: only the entry stamped at 0.0
        assert list(bank) == [2.0]
        assert bank.expired == 1
        assert bank.total == pytest.approx(2.0)

    def test_total_tracks_mutation(self):
        bank = TokenBank()
        for value in (1.0, 2.0, 3.0):
            bank.append(value)
        assert bank.spend(0.5) == 0.0  # front token partially consumed
        assert bank.total == pytest.approx(5.5)
        assert bank.popleft() == 0.5
        assert bank.total == pytest.approx(5.0)
        bank.clear()
        assert bank.total == 0.0
        assert not bank


class TestResetMonotonicity:
    """Mid-run estimator resets must never reorder or rewind ACKs."""

    def test_release_times_monotone_across_reset(self):
        sim = Simulator()
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(
            sim, teller, rng=DeterministicRandom(1), max_extra_delay=10.0)
        rng = DeterministicRandom(2)
        releases = []
        t = 0.0
        for i in range(600):
            if i == 200:
                updater.reset_state()
            if i == 350:
                updater.passthrough = True
            if i == 450:
                updater.passthrough = False
                updater.reset_state()
            updater.bank(t, rng.gauss(0.002, 0.004))
            delay = updater.ack_delay(t)
            assert delay >= 0.0
            releases.append(t + delay)
            t += 0.002
        assert releases == sorted(releases)

    def test_reset_clears_ledgers_but_not_ordering(self):
        sim = Simulator()
        updater = OutOfBandFeedbackUpdater(
            sim, FortuneTeller(sim, DropTailQueue()),
            rng=DeterministicRandom(1))
        updater.delta_history.push(0.0, 0.01)
        updater.token_history.append(0.02)
        updater._last_sent_time = 5.0
        updater.reset_state()
        assert updater.outstanding_tokens == 0.0
        assert updater._last_total_delay is None
        assert updater._last_sent_time == 5.0


def _faulted_spec() -> ScenarioSpec:
    return ScenarioSpec(
        trace=TraceSpec.for_family("W2", duration=13, seed=1),
        protocol="tcp", cca="copa", ap_mode="zhuge",
        duration=8.0, warmup=2.0, seed=1,
        faults=FaultPlan.parse("blackout@4+0.5,reset@4.5,loss@5.5+1*0.4"))


@pytest.mark.bitexact
class TestFaultDeterminism:
    """Serial, pooled, and cache-replayed runs are bit-identical."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_specs([_faulted_spec()], jobs=0, cache=None)[0]

    def test_fault_log_recorded(self, serial):
        kinds = [(kind, phase) for _, kind, phase in serial.fault_log]
        assert ("blackout", "begin") in kinds
        assert ("blackout", "end") in kinds
        assert ("ap_reset", "begin") in kinds
        assert ("loss_burst", "begin") in kinds

    def test_watchdog_engaged(self, serial):
        states = [state for _, state, _ in serial.watchdog_transitions]
        assert "degraded" in states

    def test_pool_matches_serial(self, serial):
        pooled = run_specs([_faulted_spec()], jobs=2, cache=None)[0]
        assert pooled.as_dict() == serial.as_dict()

    def test_cache_replay_matches_serial(self, serial, tmp_path):
        cache = ResultCache(root=tmp_path)
        first = run_specs([_faulted_spec()], jobs=0, cache=cache)[0]
        replayed = run_specs([_faulted_spec()], jobs=0, cache=cache)[0]
        assert cache.stats.hits == 1
        assert first.as_dict() == serial.as_dict()
        assert replayed.as_dict() == serial.as_dict()


def _roaming_spec(faults: str, ap_mode: str = "zhuge") -> ScenarioSpec:
    return ScenarioSpec(trace=TraceSpec.for_family("W1", duration=8, seed=1),
                        protocol="rtp", duration=6.0, seed=1,
                        topology=roaming_topology(ap_mode=ap_mode),
                        faults=FaultPlan.parse(faults))


class TestFaultTargets:
    """A fault aimed at a name the topology lacks is refused when the
    builder arms the plan, instead of running a healthy scenario (or
    failing mid-run)."""

    @pytest.mark.parametrize("faults, kind, name", [
        ("blackout@2+1/typo-edge", "blackout", "typo-edge"),
        ("loss@2+1/wan-a", "loss_burst", "wan-a"),  # wired
        ("reset@2/ghost-ap", "ap_reset", "ghost-ap"),
        ("reset@2/client", "ap_reset", "client"),  # a node, not an AP
        ("roam@2+0.4/nobody:ap-b", "roam", "nobody"),
        ("roam@2+0.4/server:ap-b", "roam", "server"),  # wired only
        ("roam@2+0.4/client:ap-zz", "roam", "ap-zz"),
        ("roam@2+0.4/client:server", "roam", "server"),
    ])
    def test_unknown_name_rejected_at_build(self, faults, kind, name):
        with pytest.raises(ValueError) as excinfo:
            TopologyBuilder(_roaming_spec(faults))
        message = str(excinfo.value)
        assert message.startswith(f"{kind} fault at 2 s")
        assert repr(name) in message

    def test_known_names_arm(self):
        builder = TopologyBuilder(_roaming_spec(
            "blackout@1+1/a-down,crash@1+1/b-up,reset@2/ap-b,"
            "roam@3+0.4/client:ap-b"))
        builder.run()
        assert [(kind, phase) for _, kind, phase
                in builder.fault_injector.log][-2:] == [("roam", "begin"),
                                                        ("roam", "end")]
        assert builder.forwarding.rtc[0].serving_ap == "ap-b"

    def test_reset_of_passthrough_ap_is_a_noop(self):
        plain = TopologyBuilder(_roaming_spec("reset@2/ap-a",
                                              ap_mode="none")).run()
        assert plain.fault_log == [(2.0, "ap_reset", "begin")]
        spec = dataclasses.replace(_roaming_spec("reset@2/ap-a",
                                                 ap_mode="none"),
                                   faults=None)
        healthy = TopologyBuilder(spec).run()
        assert list(plain.rtt.rtts) == list(healthy.rtt.rtts)


class TestResilienceAcceptance:
    """The tentpole acceptance: graceful degradation under blackout."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.drivers.resilience import fig_resilience
        return {row.scheme: row
                for row in fig_resilience(blackout_lengths=(1.0,),
                                          duration=20.0, seeds=(1,),
                                          cache=None)}

    def test_watchdog_demotes_within_hysteresis_bound(self, rows):
        from repro.experiments.drivers.resilience import FAULT_START
        bound = (FAULT_START + watchdog.STALE_AFTER + watchdog.DEMOTE_AFTER
                 + 2 * watchdog.CHECK_INTERVAL)
        assert rows["zhuge"].demote_at is not None
        assert FAULT_START < rows["zhuge"].demote_at <= bound

    def test_watchdog_repromotes_after_recovery(self, rows):
        assert rows["zhuge"].promote_at is not None
        assert rows["zhuge"].promote_at > rows["zhuge"].demote_at

    def test_fault_window_no_worse_than_passthrough(self, rows):
        assert rows["zhuge"].fault_p50_ms <= \
            rows["passthrough"].fault_p50_ms + 1e-6

    def test_nodog_ablation_stays_engaged(self, rows):
        assert rows["zhuge-nodog"].demote_at is None

    def test_all_schemes_measured_through_fault(self, rows):
        assert all(row.fault_samples > 100 for row in rows.values())


class TestTimeoutRefusal:
    """The one cell deadline is a SIGALRM timer; where it could not
    fire, the campaign refuses the timeout before any cell runs."""

    def _run(self, timeout):
        from repro.campaign import run_campaign
        spec = ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            duration=1.0)
        return run_campaign([spec], jobs=0, cache=None, timeout=timeout,
                            worker=lambda spec: ScenarioSummary(spec=spec))

    def test_off_main_thread_timeout_is_refused(self):
        box = {}

        def work():
            try:
                self._run(timeout=30.0)
            except ValueError as exc:
                box["error"] = str(exc)
            box["untimed"] = self._run(timeout=None)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert "main thread" in box["error"]
        assert box["untimed"].ok == 1

    def test_platform_without_sigalrm_is_refused(self, monkeypatch):
        import signal
        monkeypatch.delattr(signal, "SIGALRM")
        with pytest.raises(ValueError, match="SIGALRM"):
            self._run(timeout=30.0)


class TestFaultTraceSchema:
    """Fault events flow through the bus and validate against the
    pinned Chrome trace schema."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.obs.session import TraceConfig
        spec = dataclasses.replace(
            _faulted_spec(), trace_config=TraceConfig(events=("fault",)))
        builder = TopologyBuilder(spec)
        builder.run()
        return builder.trace_session

    def test_fault_events_emitted(self, session):
        names = {(e.category, e.name) for e in session.events}
        assert ("fault", "window") in names
        assert ("fault", "phase") in names
        assert ("fault", "loss") in names
        assert ("fault", "watchdog") in names

    def test_chrome_doc_validates(self, session):
        import json

        from repro.obs.export import chrome_trace
        from tests.test_trace_schema import SCHEMA_PATH, validate
        doc = chrome_trace(list(session.events))
        schema = json.loads(SCHEMA_PATH.read_text())
        assert validate(doc, schema) == []

    def test_fault_windows_are_duration_slices(self, session):
        from repro.obs.export import chrome_trace
        doc = chrome_trace(list(session.events))
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "fault.window"]
        assert slices
        assert all(e["dur"] > 0 for e in slices)
