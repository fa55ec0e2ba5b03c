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
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.campaign import ResultCache, ScenarioSpec, TraceSpec, run_specs
from repro.campaign.summary import ScenarioSummary
from repro.core.feedback_updater import OutOfBandFeedbackUpdater
from repro.core.fortune_teller import FortuneTeller
from repro.core.prediction_join import PredictionJoin
from repro.core.sliding_window import TokenBank
from repro.faults import (STATE_DEGRADED, STATE_HEALTHY,
                          EstimatorHealthWatchdog, FaultPlan, FaultSpec,
                          WatchdogConfig)
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


class TestWatchdog:
    def test_demotes_on_stale_within_bound(self):
        sim = Simulator()
        config = WatchdogConfig()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim), config)
        dog.join.note(1, 0.010)  # never delivered
        sim.run(until=2.0)
        assert dog.state == STATE_DEGRADED
        when, state, reason = dog.transitions[0]
        assert (state, reason) == (STATE_DEGRADED, "stale")
        assert when <= (config.stale_after + config.demote_after
                        + 2 * config.check_interval)

    def test_demotes_on_inaccurate(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim),
                                      WatchdogConfig())
        ids = iter(range(10_000))

        def feed():
            pkt = next(ids)
            dog.join.note(pkt, 1.0)  # reality: instant delivery
            dog.join.deliver(pkt)
            sim.schedule(0.02, feed)

        sim.schedule(0.0, feed)
        sim.run(until=1.0)
        assert dog.state == STATE_DEGRADED
        assert dog.transitions[0][2] == "inaccurate"

    def test_brief_staleness_does_not_demote(self):
        sim = Simulator()
        config = WatchdogConfig()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim), config)
        # Delivered (accurately) just after the stale threshold but
        # before the demote delay elapses: hysteresis holds.
        delivery_at = config.stale_after + 0.15
        dog.join.note(1, delivery_at)
        sim.schedule(delivery_at, lambda: dog.join.deliver(1))
        sim.run(until=2.0)
        assert dog.state == STATE_HEALTHY
        assert dog.transitions == []

    def test_reset_demotes_immediately(self):
        sim = Simulator()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim),
                                      WatchdogConfig())
        dog.notify_reset()
        assert dog.state == STATE_DEGRADED
        assert dog.transitions[0][2] == "reset"

    def test_promotes_after_sustained_health(self):
        sim = Simulator()
        config = WatchdogConfig()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim), config)
        dog.notify_reset()
        ids = iter(range(10_000))

        def feed():
            pkt = next(ids)
            dog.join.note(pkt, 0.0)  # perfectly accurate joins
            dog.join.deliver(pkt)
            sim.schedule(0.02, feed)

        sim.schedule(0.1, feed)
        sim.run(until=4.0)
        assert dog.state == STATE_HEALTHY
        assert dog.transitions[-1][1:] == (STATE_HEALTHY, "recovered")

    def test_redemote_after_promote_serves_full_dwell(self):
        """Audit pin: a promotion clears both dwell clocks, so the next
        demotion needs a *fresh* ``demote_after`` window — promote must
        never inherit a stale ``_unhealthy_since`` and re-demote early.
        """
        sim = Simulator()
        config = WatchdogConfig()
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim), config)
        dog.notify_reset()  # degraded at t=0
        ids = iter(range(10_000))
        feeding = {"on": True}

        def feed():
            if not feeding["on"]:
                return
            pkt = next(ids)
            dog.join.note(pkt, 0.0)
            dog.join.deliver(pkt)
            sim.schedule(0.02, feed)

        sim.schedule(0.1, feed)
        relapse_at = 4.0

        def relapse():
            feeding["on"] = False
            dog.join.note(99_999, 0.010)  # never delivered

        sim.schedule(relapse_at, relapse)
        sim.run(until=8.0)
        promote_at = next(when for when, state, _ in dog.transitions
                          if state == STATE_HEALTHY)
        assert promote_at < relapse_at
        redemote_at, state, reason = dog.transitions[-1]
        assert (state, reason) == (STATE_DEGRADED, "stale")
        # Staleness starts at relapse + stale_after; the demotion may
        # fire no earlier than a full demote_after after that.
        floor = relapse_at + config.stale_after + config.demote_after
        ceiling = floor + 2 * config.check_interval
        assert floor <= redemote_at <= ceiling

    def test_no_promotion_without_min_samples(self):
        sim = Simulator()
        config = WatchdogConfig(min_samples=1000)
        dog = EstimatorHealthWatchdog(sim, PredictionJoin(sim), config)
        dog.notify_reset()
        ids = iter(range(10_000))

        def feed():
            pkt = next(ids)
            dog.join.note(pkt, 0.0)
            dog.join.deliver(pkt)
            sim.schedule(0.1, feed)  # ~10/s: never 1000 inside 1 s window

        sim.schedule(0.1, feed)
        sim.run(until=4.0)
        assert dog.state == STATE_DEGRADED


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
    def test_controller_less_queue_drop_does_not_strand_the_watchdog(self):
        """Known defect: without a controller nothing forgets a queue
        drop, so the RTC flow's first CoDel drop (0.79 s) leaves a
        prediction that can never join. The watchdog demotes Zhuge as
        ``stale`` at 1.4 s and stays degraded to the end, its open map
        holding exactly the 22 dropped packets."""
        spec = ScenarioSpec(
            trace=TraceSpec.for_family("W1", duration=20, seed=1),
            protocol="rtp", ap_mode="zhuge", queue_kind="codel",
            competitors=2, duration=20,
            faults=FaultPlan.parse("loss@19.5+0.01*0.01"))
        builder = TopologyBuilder(spec)
        zhuge = builder.zhuge
        rtc = builder.forwarding.rtc[0].flow
        dropped = set()
        zhuge.downlink_queue.on_drop.append(
            lambda packet, reason: dropped.add(packet.pkt_id)
            if packet.flow == rtc else None)
        builder.run()
        assert dropped
        assert not dropped & set(zhuge.predictions._open)
        assert zhuge.watchdog.state == STATE_HEALTHY


class TestTokenBank:
    def test_cap_evicts_oldest(self):
        bank = TokenBank(max_entries=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            bank.append(value)
        assert list(bank) == [2.0, 3.0, 4.0]
        assert bank.capped == 1
        assert bank.total == pytest.approx(9.0)

    def test_ttl_expiry(self):
        bank = TokenBank(ttl=1.0)
        bank.append(1.0, now=0.0)
        bank.append(2.0, now=0.5)
        bank.expire(1.4)  # horizon 0.4: only the entry stamped at 0.0
        assert list(bank) == [2.0]
        assert bank.expired == 1
        assert bank.total == pytest.approx(2.0)

    def test_total_tracks_mutation(self):
        bank = TokenBank()
        bank.extend([1.0, 2.0, 3.0])
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
        config = WatchdogConfig()
        bound = (FAULT_START + config.stale_after + config.demote_after
                 + 2 * config.check_interval)
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


class TestTimeoutTelemetry:
    def _spec(self) -> ScenarioSpec:
        return ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            duration=1.0)

    def test_enforced_on_main_thread(self):
        from repro.campaign import run_campaign
        result = run_campaign(
            [self._spec()], jobs=0, cache=None, timeout=30.0,
            worker=lambda spec: ScenarioSummary(spec=spec))
        assert result.progress.timeout_enforced is True
        assert result.progress.timeout_modes.get("signal") == 1
        assert "timeout_enforced" in result.progress.as_dict()

    def test_thread_fallback_enforces_off_main_thread(self):
        # SIGALRM is unavailable off the main thread; the watchdog-
        # thread fallback takes over instead of silently disabling the
        # budget (and says so in the timeout_modes telemetry).
        from repro.campaign import run_campaign
        box = {}

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                box["result"] = run_campaign(
                    [self._spec()], jobs=0, cache=None, timeout=30.0,
                    worker=lambda spec: ScenarioSummary(spec=spec))
            box["warnings"] = caught

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert box["result"].progress.timeout_enforced is True
        assert box["result"].progress.timeout_modes.get("thread") == 1
        assert not any(issubclass(w.category, RuntimeWarning)
                       for w in box["warnings"])

    def test_thread_fallback_fires(self):
        from repro.campaign import run_campaign
        box = {}

        def slow_worker(spec):
            # Sliced: the async-raise fallback lands between bytecodes,
            # never inside one blocking C call (see campaign.supervise).
            for _ in range(2000):
                time.sleep(0.01)
            return ScenarioSummary(spec=spec)

        def work():
            box["result"] = run_campaign(
                [self._spec()], jobs=0, cache=None, timeout=0.2,
                retries=0, backoff_s=0.01, worker=slow_worker)

        thread = threading.Thread(target=work)
        started = time.monotonic()
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 2.0
        cell = box["result"].cells[0]
        assert cell.status == "failed"
        assert "timeout" in cell.error
        assert box["result"].progress.timeout_modes.get("thread") == 1

    def test_fired_deadline_leaves_tracing_working(self):
        # A deadline that fires inside a body which catches it and then
        # finishes must not leave the interpreter's async-exception
        # signal set: a later ``sys.settrace`` tracer would spin on its
        # first line. Run in a subprocess so a regression hangs there.
        script = textwrap.dedent("""
            import sys, time
            from repro.campaign.supervise import TIMEOUT_THREAD, cell_deadline

            class Late(Exception):
                pass

            with cell_deadline(0.05, Late, mode=TIMEOUT_THREAD):
                try:
                    for _ in range(100):
                        time.sleep(0.01)
                except Late:
                    pass

            def tracer(frame, event, arg):
                return tracer

            sys.settrace(tracer)
            total = sum(i for i in range(9))
            sys.settrace(None)
            print(total)
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                  / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "36"

    def test_unenforceable_mode_warns_once(self, monkeypatch):
        import repro.campaign.runner as runner_mod
        from repro.campaign import run_campaign
        monkeypatch.setattr(runner_mod, "_UNENFORCED_WARNED", False)
        monkeypatch.setattr(runner_mod, "timeout_mode",
                            lambda timeout: runner_mod.TIMEOUT_NONE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_campaign(
                [self._spec(), self._spec()], jobs=0, cache=None,
                timeout=30.0,
                worker=lambda spec: ScenarioSummary(spec=spec))
        assert result.progress.timeout_enforced is False
        assert result.progress.timeout_modes.get("none") == 2
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        # The warning fires once per process, not once per cell.
        assert len(runtime) == 1

    def test_no_timeout_requested_stays_enforced(self):
        from repro.campaign import run_campaign
        box = {}

        def work():
            box["result"] = run_campaign(
                [self._spec()], jobs=0, cache=None, timeout=None,
                worker=lambda spec: ScenarioSummary(spec=spec))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert box["result"].progress.timeout_enforced is True


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
