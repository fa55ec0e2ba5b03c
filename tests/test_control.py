"""Control layer: specs, controller state machine, steering, acceptance.

Covers the adaptive-control acceptance criteria:

* ``control=None`` is the identity — spec payloads and hashes are
  byte-identical to pre-control specs — and the three control variants
  (none, controller, controller + steering) hash apart;
* a control-enabled cell is bit-identical whether computed serially, in
  a worker pool, or replayed from the result cache;
* the per-AP controller walks GREEN/YELLOW/SOFT_RED/RED with dwell
  hysteresis, applies each state's policy to the live AP, and reserves
  RED for stale-on-unimpaired-link;
* controller-on beats static-config Zhuge on pooled fault-window P50
  *and* P99 under the default storm, and steering-on beats steering-off
  fleet P99 on the two-AP roaming topology;
* control trace events validate against the pinned Chrome schema.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.aqm import make_queue
from repro.campaign import ResultCache, ScenarioSpec, TraceSpec, run_specs
from repro.control import (CONTROL_STATES, LADDER, ControlPolicy, ControlSpec,
                           ZhugeController)
from repro.control.controller import GREEN, RELAX_AFTER
from repro.control.steering import NEUTRAL_SCORE, SteeringDaemon
from repro.core.feedback_updater import FeedbackKind
from repro.core.prediction_join import PredictionJoin
from repro.core.zhuge_ap import ZhugeAP
from repro.faults import FaultPlan
from repro.faults.watchdog import EstimatorHealthWatchdog
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue

# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------


@pytest.mark.bitexact
class TestControlSpecHashStability:
    """``control=None`` must be indistinguishable from no control at all."""

    def _spec(self, **kwargs) -> ScenarioSpec:
        return ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            duration=1.0, **kwargs)

    def test_uncontrolled_payload_has_no_control_key(self):
        assert "control" not in self._spec().as_dict()

    def test_controlled_spec_hashes_differently(self):
        bare = self._spec()
        controlled = self._spec(control=ControlSpec(steering=True))
        assert bare.content_hash() != controlled.content_hash()

    def test_control_variants_hash_distinctly(self):
        variants = [self._spec(),
                    self._spec(control=ControlSpec()),
                    self._spec(control=ControlSpec(steering=True))]
        hashes = {spec.content_hash() for spec in variants}
        assert len(hashes) == len(variants)

    def test_controlled_spec_round_trips(self):
        for control in (ControlSpec(), ControlSpec(steering=True)):
            spec = self._spec(control=control)
            assert ScenarioSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("payload, named", [
        ({"controller": {"quorum": 2}}, "controller"),
        ({"steering": True, "handoff": 0.1}, "handoff"),
    ])
    def test_unknown_control_fields_refused_by_name(self, payload, named):
        with pytest.raises(ValueError, match=named):
            ControlSpec.from_dict(payload)

    def test_steering_must_be_a_bool(self):
        with pytest.raises(ValueError, match="steering"):
            ControlSpec(steering={"min_dwell": 3.0})

    def test_ladder_covers_every_state(self):
        assert tuple(LADDER) == CONTROL_STATES
        assert LADDER[GREEN] == ControlPolicy()

    def test_red_policy_is_passthrough_with_clamp(self):
        red = LADDER["red"]
        assert red.passthrough is True
        assert red.queue_limit is not None
        assert red.max_sojourn is not None


# ---------------------------------------------------------------------------
# Queue trim primitives
# ---------------------------------------------------------------------------


FLOW = FiveTuple("s", "c", 1, 2, "udp")


def _pkt(size=1000, pkt_id=None):
    return Packet(FLOW, size, pkt_id=pkt_id)


class TestQueueTrims:
    def test_trim_head_drops_oldest_until_fit(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        for i in range(8):
            queue.enqueue(_pkt(pkt_id=i), now=float(i))
        dropped = queue.trim_head(3_000, "control-trim")
        assert dropped == 5
        assert queue.byte_length == 3_000
        # The survivors are the *newest* packets.
        assert [p.pkt_id for p in queue._packets] == [5, 6, 7]
        assert queue.stats.drop_reasons["control-trim"] == 5

    def test_trim_aged_sheds_only_stale_heads(self):
        queue = DropTailQueue(capacity_bytes=100_000)
        queue.enqueue(_pkt(pkt_id=0), now=0.0)
        queue.enqueue(_pkt(pkt_id=1), now=0.1)
        queue.enqueue(_pkt(pkt_id=2), now=0.9)
        dropped = queue.trim_aged(1.0, max_age=0.5, reason="control-sojourn")
        assert dropped == 2
        assert [p.pkt_id for p in queue._packets] == [2]

    def test_trim_fires_drop_callbacks(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        seen = []
        queue.on_drop.append(lambda packet, reason: seen.append(
            (packet.pkt_id, reason)))
        queue.enqueue(_pkt(pkt_id=7), now=0.0)
        queue.trim_head(0, "control-trim")
        assert seen == [(7, "control-trim")]


@pytest.mark.parametrize("kind", ["fifo", "codel", "fq_codel"])
class TestQueueTrimsOnEveryKind:
    """The clamp and the sojourn ceiling shed the oldest packets on
    every queue kind, FQ-CoDel's sub-queues included, and leave a queue
    that conserves packets and keeps serving."""

    @staticmethod
    def _filled(kind):
        queue = make_queue(kind, capacity_bytes=100_000)
        seen = []
        queue.on_drop.append(lambda packet, reason: seen.append(
            (packet.pkt_id, reason)))
        flows = [FiveTuple("s", "c", port, 2, "udp") for port in (1, 3)]
        for i in range(20):
            queue.enqueue(Packet(flows[i % 2], 1200, pkt_id=i),
                          now=i * 0.01)
        return queue, seen

    @staticmethod
    def _drained_ids(queue):
        burst = queue.dequeue_burst(1.0, 100, 1 << 30)
        stats = queue.stats
        assert stats.enqueued == stats.dequeued + stats.dropped
        assert queue.is_empty
        return sorted(p.pkt_id for p in burst)

    def test_trim_head_drops_the_oldest(self, kind):
        queue, seen = self._filled(kind)
        assert queue.trim_head(6_000, "control-trim") == 15
        assert seen == [(i, "control-trim") for i in range(15)]
        assert queue.byte_length == 6_000
        assert self._drained_ids(queue) == list(range(15, 20))

    def test_trim_aged_sheds_stale_packets(self, kind):
        queue, seen = self._filled(kind)
        assert queue.trim_aged(0.2, max_age=0.055,
                               reason="control-sojourn") == 15
        assert sorted(seen) == [(i, "control-sojourn") for i in range(15)]
        assert self._drained_ids(queue) == list(range(15, 20))


# ---------------------------------------------------------------------------
# Controller state machine (unit, against a fake AP)
# ---------------------------------------------------------------------------


class FakeZhuge:
    """Duck-typed stand-in exposing what the controller touches."""

    def __init__(self, sim, capacity=100_000):
        self.sim = sim
        self.watchdog = None
        self.policy = None
        self.downlink_queue = DropTailQueue(capacity_bytes=capacity)
        self.applied = []

    def enable_watchdog(self):
        self.watchdog = EstimatorHealthWatchdog(self.sim,
                                                PredictionJoin(self.sim))

    def apply_policy(self, policy):
        self.policy = policy
        self.applied.append(policy)


@pytest.mark.bitexact
class TestControllerStateMachine:
    def _controller(self, sim, edge=None):
        zhuge = FakeZhuge(sim)
        return zhuge, ZhugeController(sim, zhuge, edge=edge)

    def test_starts_green_with_green_policy_applied(self, sim):
        zhuge, controller = self._controller(sim)
        assert controller.state == GREEN
        assert zhuge.applied == [LADDER[GREEN]]
        assert zhuge.watchdog is not None

    def test_queue_pressure_escalates_after_dwell(self, sim):
        zhuge, controller = self._controller(sim)
        for i in range(90):  # 90% occupancy > queue_soft_red
            zhuge.downlink_queue.enqueue(_pkt(pkt_id=i), now=0.0)
        sim.run(until=0.15)  # one vote, dwell not yet served
        assert controller.state == "green"
        sim.run(until=0.45)
        assert controller.state == "soft_red"
        assert zhuge.policy.window == LADDER["soft_red"].window
        when, state, reason = controller.transitions[-1]
        assert (state, reason) == ("soft_red", "queue=2")

    def test_relax_needs_longer_dwell_than_escalate(self, sim):
        zhuge, controller = self._controller(sim)
        for i in range(90):
            zhuge.downlink_queue.enqueue(_pkt(pkt_id=i), now=0.0)
        sim.run(until=0.45)
        assert controller.state == "soft_red"
        zhuge.downlink_queue.clear()
        sim.run(until=0.45 + RELAX_AFTER - 0.15)
        assert controller.state == "soft_red"  # still dwelling
        sim.run(until=0.45 + RELAX_AFTER + 0.25)
        assert controller.state == "green"
        assert zhuge.policy == LADDER[GREEN]

    def test_stale_on_unimpaired_link_goes_red(self, sim):
        zhuge, controller = self._controller(sim)
        zhuge.watchdog.join.note(1, FLOW, 0.010)  # never delivered
        sim.run(until=2.0)
        assert controller.state == "red"
        assert zhuge.policy.passthrough is True
        assert controller.last_votes["health"] == 3

    def test_impaired_link_caps_health_at_soft_red(self, sim):
        zhuge = FakeZhuge(sim)
        edge = SimpleNamespace(enabled=True,
                               link=SimpleNamespace(blocked=True),
                               queue=zhuge.downlink_queue,
                               channel=SimpleNamespace(fault_scale=1.0))
        controller = ZhugeController(sim, zhuge, edge=edge)
        zhuge.watchdog.join.note(1, FLOW, 0.010)  # stale, but link blocked
        sim.run(until=2.0)
        assert controller.state == "soft_red"
        assert controller.last_votes["health"] == 2
        assert controller.last_votes["link"] == 2
        assert zhuge.policy.passthrough is False

    def test_idle_degraded_watchdog_abstains(self, sim):
        zhuge, controller = self._controller(sim)
        zhuge.watchdog.notify_reset()  # degraded, but no evidence at all
        sim.run(until=2.0)
        assert controller.state == "green"
        assert controller.last_votes["health"] == 0

    def test_sojourn_ceiling_enforced_each_check(self, sim):
        zhuge, controller = self._controller(sim)
        # Force a policy with a sojourn bound without a state change.
        zhuge.policy = ControlPolicy(max_sojourn=0.2)
        zhuge.downlink_queue.enqueue(_pkt(pkt_id=1), now=0.0)
        sim.run(until=0.45)
        assert zhuge.downlink_queue.is_empty
        assert zhuge.downlink_queue.stats.drop_reasons[
            "control-sojourn"] == 1


# ---------------------------------------------------------------------------
# Policy application on the real AP
# ---------------------------------------------------------------------------


@pytest.mark.bitexact
class TestApplyPolicyOnZhugeAP:
    @pytest.fixture
    def ap(self, sim):
        return ZhugeAP(sim, DropTailQueue(capacity_bytes=1_000_000))

    def test_retunes_estimator_windows(self, sim, ap, flow):
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        policy = LADDER["soft_red"]
        ap.apply_policy(policy)
        teller = ap.fortune_teller
        assert teller.window == policy.window
        assert teller.tx_rate.window == policy.window
        assert teller.tx_rate_long.window == pytest.approx(
            policy.window * 10)
        assert teller.burst_correction is False
        updater = ap.updaters[flow]
        assert updater.window == policy.window
        assert updater.max_extra_delay == policy.max_extra_delay
        bank = updater.token_history
        assert (bank.max_entries, bank.ttl) == (policy.token_bank_cap,
                                                policy.token_ttl)

    def test_queue_clamp_and_restore(self, sim, ap):
        queue = ap.downlink_queue
        for i in range(500):  # 500 kB backlog
            queue.enqueue(_pkt(pkt_id=i), now=0.0)
        ap.apply_policy(LADDER["soft_red"])  # queue_limit 0.25
        assert queue.capacity_bytes == 250_000
        assert queue.byte_length <= 250_000
        assert queue.stats.drop_reasons["control-trim"] > 0
        ap.apply_policy(LADDER[GREEN])
        assert queue.capacity_bytes == 1_000_000

    def test_red_policy_rides_passthrough_demotion(self, sim, ap, flow):
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        ap.apply_policy(LADDER["red"])
        assert ap.passthrough is True
        assert ap.updaters[flow].passthrough is True
        ap.apply_policy(LADDER[GREEN])
        assert ap.passthrough is False

    def test_late_registered_flow_inherits_policy(self, sim, ap, flow):
        policy = LADDER["yellow"]
        ap.apply_policy(policy)
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        assert ap.updaters[flow].window == policy.window


# ---------------------------------------------------------------------------
# Steering scoring
# ---------------------------------------------------------------------------


class TestSteeringScores:
    def test_controller_less_ap_scores_neutral(self, sim):
        forwarding = SimpleNamespace(aps={}, rtc=[])
        daemon = SteeringDaemon(sim, forwarding,
                                {"ap-a": SimpleNamespace(level=2)})
        assert daemon.score("ap-b") == NEUTRAL_SCORE
        assert daemon.score("ap-a") == 1.0  # SOFT_RED
        daemon.stop()


# ---------------------------------------------------------------------------
# Determinism triangle + runtime plumbing
# ---------------------------------------------------------------------------


def _controlled_spec() -> ScenarioSpec:
    return ScenarioSpec(
        trace=TraceSpec.for_family("W2", duration=15, seed=1),
        protocol="rtp", cca="gcc", ap_mode="zhuge",
        duration=10.0, seed=1,
        faults=FaultPlan.parse("crash@4+2*0.05,reset@6",
                               watchdog_enabled=False),
        control=ControlSpec())


@pytest.mark.bitexact
class TestControlDeterminism:
    """Serial, pooled, and cache-replayed controlled runs are identical."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_specs([_controlled_spec()], jobs=0, cache=None)[0]

    def test_controller_engaged(self, serial):
        assert serial.control_transitions
        states = {state for _, _, state, _ in serial.control_transitions}
        assert states - {"green"}  # escalated at least once

    def test_transitions_align_with_fault_window(self, serial):
        plan = _controlled_spec().faults
        start = plan.faults[0].start
        first_escalation = serial.control_transitions[0][0]
        assert first_escalation >= start

    def test_pool_matches_serial(self, serial):
        pooled = run_specs([_controlled_spec()], jobs=2, cache=None)[0]
        assert pooled.as_dict() == serial.as_dict()

    def test_cache_replay_matches_serial(self, serial, tmp_path):
        cache = ResultCache(root=tmp_path)
        first = run_specs([_controlled_spec()], jobs=0, cache=cache)[0]
        replayed = run_specs([_controlled_spec()], jobs=0, cache=cache)[0]
        assert cache.stats.hits == 1
        assert first.as_dict() == serial.as_dict()
        assert replayed.as_dict() == serial.as_dict()

    def test_summary_round_trips_control_fields(self, serial):
        from repro.campaign.summary import ScenarioSummary
        restored = ScenarioSummary.from_dict(serial.as_dict())
        assert restored.control_transitions == serial.control_transitions


# ---------------------------------------------------------------------------
# Acceptance: controller beats static, steering beats no-steering
# ---------------------------------------------------------------------------


class TestControlAcceptance:
    """The tentpole acceptance, pooled across seeds (1, 2)."""

    @pytest.fixture(scope="class")
    def figure(self):
        from repro.experiments.drivers.control import fig_control
        rows, fleet_rows = fig_control(seeds=(1, 2), jobs=4, cache=None)
        return ({row.scheme: row for row in rows},
                {row.scheme: row for row in fleet_rows})

    def test_controller_beats_static_fault_p50(self, figure):
        rows, _ = figure
        assert rows["controller"].fault_p50_ms < rows["static"].fault_p50_ms

    def test_controller_beats_static_fault_p99(self, figure):
        rows, _ = figure
        assert rows["controller"].fault_p99_ms < rows["static"].fault_p99_ms

    def test_controller_reacts_inside_first_fault(self, figure):
        rows, _ = figure
        from repro.experiments.drivers.control import STORM, storm_plan
        first_fault = storm_plan(STORM).faults[0]
        assert rows["controller"].transitions > 0
        assert (first_fault.start <= rows["controller"].first_reaction
                <= first_fault.end + 2.0)
        assert rows["static"].transitions == 0

    def test_steady_p50_not_degraded(self, figure):
        rows, _ = figure
        assert rows["controller"].steady_p50_ms <= \
            rows["static"].steady_p50_ms * 1.10

    def test_steering_beats_no_steering_fleet_p99(self, figure):
        _, fleet = figure
        assert fleet["steering"].fault_p99_ms < \
            fleet["no-steering"].fault_p99_ms
        assert fleet["steering"].moves >= 1
        assert fleet["no-steering"].moves == 0

    def test_all_schemes_measured_through_fault(self, figure):
        rows, fleet = figure
        assert all(row.fault_samples > 100 for row in rows.values())
        assert all(row.fault_samples > 100 for row in fleet.values())


# ---------------------------------------------------------------------------
# Trace schema
# ---------------------------------------------------------------------------


@pytest.mark.bitexact
class TestControlTraceSchema:
    """Control events flow through the bus and validate against the
    pinned Chrome trace schema."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.obs.session import TraceConfig
        from repro.topology.builder import TopologyBuilder
        spec = dataclasses.replace(
            _controlled_spec(), trace_config=TraceConfig(events=("control",)))
        builder = TopologyBuilder(spec)
        builder.run()
        return builder.trace_session

    def test_control_events_emitted(self, session):
        names = {(e.category, e.name) for e in session.events}
        assert ("control", "state") in names
        assert ("control", "policy") in names

    def test_chrome_doc_validates(self, session):
        import json

        from repro.obs.export import chrome_trace
        from tests.test_trace_schema import SCHEMA_PATH, validate
        doc = chrome_trace(list(session.events))
        schema = json.loads(SCHEMA_PATH.read_text())
        assert validate(doc, schema) == []
