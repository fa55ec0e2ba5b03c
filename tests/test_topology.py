"""Tests for the declarative topology layer (repro.topology).

Covers the pure-data spec (validation, serialization round trips,
content-hash compatibility with pre-topology specs), the builder
(single-AP chain bit-identity, genuine 2-AP contention, inter-AP
roaming with release-time monotonicity), and the campaign triangle
(serial == pool == cache) for an explicit multi-AP spec.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (ResultCache, ScenarioSpec, TraceSpec,
                            execute_spec, run_campaign, run_specs)
from repro.control.spec import ControlSpec
from repro.faults.spec import FaultPlan, FaultSpec
from repro.topology.builder import TopologyBuilder
from repro.topology.presets import (first_mile_topology,
                                    interference_topology, roaming_topology,
                                    single_ap_topology)
from repro.topology.spec import EdgeSpec, FlowSpec, NodeSpec, TopologySpec

GOLDEN_PATH = "tests/data/golden_summaries.json"

#: Entries re-simulated in tier-1 (the rest are spec-hash-checked only;
#: the full set runs in the campaign-digest CI job).
RESIMULATED = ("rtp-zhuge", "tcp-copa-fastack", "faulted-roam",
               "tcp-codel-competitors")


def _canonical_sha(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            NodeSpec("x", "router")

    def test_unknown_ap_mode_rejected(self):
        with pytest.raises(ValueError, match="ap_mode"):
            NodeSpec("ap", "ap", ap_mode="magic")

    def test_unknown_link_kind_rejected(self):
        with pytest.raises(ValueError, match="link_kind"):
            EdgeSpec("a", "b", kind="laser")

    def test_unknown_queue_kind_rejected(self):
        with pytest.raises(ValueError, match="queue_kind"):
            EdgeSpec("a", "b", queue_kind="red")

    def test_wired_edge_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            EdgeSpec("a", "b", kind="wired",
                     trace=TraceSpec.constant(1e6, 1.0))

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.001])
    def test_edge_rejects_non_finite_or_negative_delay(self, delay):
        with pytest.raises(ValueError, match="delay must be finite"):
            EdgeSpec("a", "b", delay=delay)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1e6])
    def test_edge_rejects_non_finite_or_non_positive_rate(self, rate):
        with pytest.raises(ValueError, match="rate_bps must be finite"):
            EdgeSpec("a", "b", rate_bps=rate)

    @pytest.mark.parametrize("delay, rate", [
        (float("nan"), None), (float("inf"), None), (0.01, float("nan")),
        (0.01, float("inf")), (0.01, 0.0)])
    def test_links_reject_non_finite_parameters(self, delay, rate):
        """A graph built without the spec is refused by the links
        themselves (NaN used to die inside the run, ``inf`` delivered
        nothing)."""
        from repro.net.link import WiredLink
        from repro.net.queue import DropTailQueue
        from repro.sim.engine import Simulator
        from repro.wireless.channel import WirelessChannel
        from repro.wireless.link import WirelessLink
        with pytest.raises(ValueError, match="finite"):
            WiredLink(Simulator(), rate, delay)
        if rate is None:
            channel = WirelessChannel(TraceSpec.constant(1e6, 1.0).build())
            with pytest.raises(ValueError, match="finite"):
                WirelessLink(Simulator(), channel, DropTailQueue(),
                             propagation_delay=delay)

    def test_nan_wan_delay_topology_is_refused_before_the_run(self):
        payload = single_ap_topology(ScenarioSpec(
            trace=TraceSpec.for_family("W1", duration=3.0, seed=1),
            duration=3.0)).as_dict()
        edge = next(e for e in payload["edges"] if e["name"] == "wan-down")
        edge["delay"] = float("nan")
        with pytest.raises(ValueError, match="'wan-down' delay"):
            TopologySpec.from_dict(payload)

    def test_edge_name_defaults_to_endpoints(self):
        assert EdgeSpec("ap", "client", kind="wifi").name == "ap-client"

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TopologySpec(nodes=(NodeSpec("a", "server"),
                                NodeSpec("a", "client")), edges=())

    def test_duplicate_edge_names_rejected(self):
        nodes = (NodeSpec("a", "server"), NodeSpec("b", "client"))
        with pytest.raises(ValueError, match="duplicate"):
            TopologySpec(nodes=nodes,
                         edges=(EdgeSpec("a", "b", name="e"),
                                EdgeSpec("b", "a", name="e")))

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            TopologySpec(nodes=(NodeSpec("a", "server"),),
                         edges=(EdgeSpec("a", "ghost"),))

    def test_flow_to_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            TopologySpec(nodes=(NodeSpec("a", "server"),), edges=(),
                         flows=(FlowSpec("a", "ghost"),))

    def test_lookups(self):
        topo = roaming_topology()
        assert topo.node("ap-b").role == "ap"
        assert topo.edge("b-down").enabled is False
        assert {n.name for n in topo.aps()} == {"ap-a", "ap-b"}


class TestPresets:
    def test_interference_is_two_aps_on_one_channel(self):
        topo = interference_topology(ap_mode="zhuge", interferers=5)
        assert len(topo.aps()) == 2
        groups = {e.channel_group for e in topo.edges if e.wireless}
        assert groups == {"ch"}
        assert sum(1 for f in topo.flows if f.role == "competitor") == 3

    def test_first_mile_is_two_aps(self):
        topo = first_mile_topology()
        assert len(topo.aps()) == 2
        # The station's uplink carries the scenario trace (bottleneck);
        # every other wireless hop has its own generous access trace.
        assert topo.edge("a-up").trace is None
        assert topo.edge("b-down").trace is not None

    def test_single_ap_mirrors_config(self):
        spec = ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            ap_mode="zhuge", queue_kind="codel",
                            competitors=2, interferers=3, rtc_flows=2,
                            zhuge_flow_mask=(True, False))
        topo = single_ap_topology(spec)
        assert [n.name for n in topo.nodes] == ["server", "ap", "client"]
        assert [e.name for e in topo.edges] == ["wan-down", "down", "up",
                                                "wan-up"]
        assert topo.edge("down").queue_kind == "codel"
        flows = [f for f in topo.flows if f.role == "rtc"]
        assert [f.optimized for f in flows] == [True, False]
        assert sum(1 for f in topo.flows if f.role == "competitor") == 2


# ---------------------------------------------------------------------------
# Serialization round trips (satellite: as_dict -> from_dict bit-identity)
# ---------------------------------------------------------------------------

node_names = st.sampled_from(("server", "ap-a", "ap-b", "client", "sta"))
trace_specs = st.one_of(
    st.none(),
    st.builds(TraceSpec.constant,
              st.floats(min_value=1e5, max_value=1e9),
              st.floats(min_value=1.0, max_value=60.0)),
    st.builds(TraceSpec.for_family, st.sampled_from(("W1", "W2", "C1")),
              st.floats(min_value=1.0, max_value=60.0),
              st.integers(min_value=1, max_value=99)))


@st.composite
def topology_specs(draw):
    n_aps = draw(st.integers(min_value=1, max_value=2))
    nodes = [NodeSpec("server", "server"), NodeSpec("client", "client")]
    nodes += [NodeSpec(f"ap-{i}", "ap",
                       ap_mode=draw(st.sampled_from(("none", "zhuge",
                                                     "fastack", "abc"))))
              for i in range(n_aps)]
    edges = []
    for i in range(n_aps):
        edges.append(EdgeSpec("server", f"ap-{i}", kind="wired",
                              rate_bps=draw(st.one_of(
                                  st.none(),
                                  st.floats(min_value=1e6, max_value=1e9))),
                              delay=draw(st.floats(min_value=0.0,
                                                   max_value=0.1))))
        edges.append(EdgeSpec(
            f"ap-{i}", "client",
            kind=draw(st.sampled_from(("wifi", "cellular"))),
            trace=draw(trace_specs),
            trace_scale=draw(st.floats(min_value=0.1, max_value=2.0)),
            queue_kind=draw(st.sampled_from(("droptail", "fifo", "codel",
                                             "fq_codel"))),
            queue_capacity=draw(st.integers(min_value=10_000,
                                            max_value=1_000_000)),
            interferers=draw(st.integers(min_value=0, max_value=10)),
            channel_group=draw(st.one_of(st.none(), st.just("ch"))),
            enabled=draw(st.booleans())))
    flows = [FlowSpec("server", "client",
                      role=draw(st.sampled_from(("rtc", "competitor"))),
                      protocol=draw(st.one_of(st.none(),
                                              st.sampled_from(("rtp", "tcp",
                                                               "quic")))),
                      optimized=draw(st.booleans()),
                      period=draw(st.one_of(st.none(),
                                            st.floats(min_value=0.1,
                                                      max_value=10.0))))
             for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return TopologySpec(nodes=tuple(nodes), edges=tuple(edges),
                        flows=tuple(flows))


class TestRoundTrips:
    @settings(max_examples=50)
    @given(topology_specs())
    def test_topology_spec_survives_json(self, topo):
        again = TopologySpec.from_dict(json.loads(json.dumps(topo.as_dict())))
        assert again == topo
        assert again.as_dict() == topo.as_dict()

    @settings(max_examples=50)
    @given(trace_specs.filter(lambda t: t is not None))
    def test_trace_spec_survives_json(self, trace):
        assert TraceSpec.from_dict(
            json.loads(json.dumps(trace.as_dict()))) == trace

    @settings(max_examples=50)
    @given(st.lists(
        st.builds(FaultSpec,
                  kind=st.sampled_from(("blackout", "rate_crash",
                                        "loss_burst", "ap_reset")),
                  start=st.floats(min_value=0.0, max_value=100.0),
                  duration=st.floats(min_value=0.1, max_value=10.0),
                  target=st.sampled_from(("down", "up", "both")),
                  edge=st.sampled_from(("", "a-down"))),
        max_size=4), st.integers(min_value=1, max_value=99))
    def test_fault_plan_survives_json(self, faults, seed):
        plan = FaultPlan(faults=tuple(faults), seed=seed)
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.as_dict()))) == plan

    @settings(max_examples=25, deadline=None)
    @given(topology_specs(),
           st.sampled_from(("rtp", "tcp", "quic")),
           st.integers(min_value=1, max_value=99))
    def test_scenario_spec_with_topology_survives_json(self, topo, protocol,
                                                       seed):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=8.0,
                                                       seed=1),
                            protocol=protocol, seed=seed, topology=topo)
        again = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.as_dict())))
        assert again == spec
        assert again.as_dict() == spec.as_dict()


class TestHashCompat:
    def test_topology_absent_keeps_legacy_payload(self):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=8.0,
                                                       seed=1))
        assert "topology" not in spec.as_dict()

    def test_topology_changes_the_hash(self):
        base = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=8.0,
                                                       seed=1))
        multi = ScenarioSpec(trace=base.trace,
                             topology=interference_topology(interferers=2))
        assert base.content_hash() != multi.content_hash()

    def test_golden_spec_payloads_unchanged(self):
        """Every pre-topology spec hashes exactly as it did at the seed."""
        data = json.load(open(GOLDEN_PATH))
        for name, entry in data.items():
            if name.startswith("_"):  # contract metadata, not a scenario
                continue
            spec = ScenarioSpec.from_dict(entry["spec"])
            assert _canonical_sha(spec.as_dict()) == entry["spec_sha256"], \
                f"spec payload drifted for {name}"

    def test_fault_spec_topology_fields_omitted_when_empty(self):
        payload = FaultSpec(kind="blackout", start=1.0,
                            duration=1.0).as_dict()
        assert "edge" not in payload
        assert "node" not in payload
        assert "to" not in payload


# ---------------------------------------------------------------------------
# Builder: single-AP chain bit-identity
# ---------------------------------------------------------------------------


class TestGoldenSummaries:
    @pytest.mark.parametrize("name", RESIMULATED)
    def test_summary_reproduces_through_topology_builder(self, name):
        data = json.load(open(GOLDEN_PATH))
        spec = ScenarioSpec.from_dict(data[name]["spec"])
        summary = execute_spec(spec)
        # Digest v2 (see _contract in the golden file): metric-level —
        # per-packet timestamps/delays/drops pinned, engine dispatch
        # count excluded, so these links and the per-packet reference
        # links of tests/reference_links.py both match.
        assert summary.digest() == data[name]["summary_digest_v2"], \
            f"summary drifted for {name}"

    def test_explicit_canonical_topology_is_equivalent(self):
        """Pinning topology=single_ap_topology(spec) changes nothing
        but the hash."""
        trace = TraceSpec.for_family("W2", duration=8, seed=5)
        implicit = ScenarioSpec(trace=trace, ap_mode="zhuge",
                                queue_kind="fq_codel", duration=6.0,
                                seed=5, warmup=2.0)
        explicit = dataclasses.replace(
            implicit, topology=single_ap_topology(implicit))
        a = TopologyBuilder(implicit).run()
        b = TopologyBuilder(explicit).run()
        assert a.flows[0].rtt.rtts == b.flows[0].rtt.rtts
        assert a.flows[0].frames.frame_delays \
            == b.flows[0].frames.frame_delays
        assert a.events_processed == b.events_processed


# ---------------------------------------------------------------------------
# Builder: genuine multi-AP behaviour
# ---------------------------------------------------------------------------


def _scenario(topology, *, duration=6.0, protocol="rtp", cca="gcc",
              faults=None, seed=1):
    return ScenarioSpec(trace=TraceSpec.for_family(
                            "W2", duration=duration + 2, seed=seed),
                        protocol=protocol, cca=cca, duration=duration,
                        seed=seed, warmup=2.0, faults=faults,
                        topology=topology)


class TestInterferenceTopology:
    def test_neighbouring_ap_traffic_degrades_the_rtc_flow(self):
        quiet = TopologyBuilder(
            _scenario(interference_topology(interferers=0))).run()
        busy = TopologyBuilder(
            _scenario(interference_topology(interferers=20))).run()
        assert busy.flows[0].rtt.count > 50
        quiet_mean = sum(quiet.flows[0].rtt.rtts) / quiet.flows[0].rtt.count
        busy_mean = sum(busy.flows[0].rtt.rtts) / busy.flows[0].rtt.count
        assert busy_mean > 1.5 * quiet_mean

    def test_competitor_stations_actually_transfer(self):
        builder = TopologyBuilder(
            _scenario(interference_topology(interferers=5)))
        builder.run()
        assert builder.forwarding.competitors
        for fr in builder.forwarding.competitors:
            assert fr.receiver.packets_received > 0

    def test_deterministic(self):
        spec = _scenario(interference_topology(interferers=5))
        a = TopologyBuilder(spec).run()
        b = TopologyBuilder(spec).run()
        assert a.flows[0].rtt.rtts == b.flows[0].rtt.rtts


class TestRoaming:
    ROAM = FaultPlan.parse("roam@3+0.4/client:ap-b")

    def _run_builder(self):
        spec = _scenario(roaming_topology(), duration=8.0,
                           protocol="tcp", cca="copa", faults=self.ROAM)
        builder = TopologyBuilder(spec)
        result = builder.run()
        return builder, result

    def test_handoff_moves_the_client_between_aps(self):
        builder, result = self._run_builder()
        fr = builder.forwarding.rtc[0]
        assert fr.serving_ap == "ap-b"
        assert not builder.edges["a-down"].enabled
        assert builder.edges["b-down"].enabled
        assert [(k, p) for _, k, p in result.fault_log] \
            == [("roam", "begin"), ("roam", "end")]

    def test_flow_survives_the_handoff(self):
        builder, result = self._run_builder()
        rtt = result.flows[0].rtt
        # Data keeps flowing on AP-B well after the 3.4 s re-association.
        assert sum(1 for t in rtt.times if t > 4.5) > 50

    def test_release_floor_carries_across_aps(self):
        """Release-time monotonicity: AP-B's updater must never release
        feedback earlier than AP-A already did."""
        spec = _scenario(roaming_topology(), duration=8.0,
                           protocol="tcp", cca="copa", faults=self.ROAM)
        builder = TopologyBuilder(spec)
        fr = builder.forwarding.rtc[0]
        zhuge_a = builder.aps["ap-a"].zhuge
        zhuge_b = builder.aps["ap-b"].zhuge
        builder.sim.run(until=3.35)  # mid-roam: detached from AP-A
        floor_a = zhuge_a.release_floor(fr.flow)
        assert floor_a > 0.0
        builder.sim.run(until=spec.duration)
        assert zhuge_b.registered_kind(fr.flow) is not None
        assert zhuge_b.release_floor(fr.flow) >= floor_a

    def test_node_targeted_roam_under_steering_is_pinned(self):
        """The scripted roam to AP-B with the controllers and fleet
        steering on: steering moves the client again, and digest v2
        pins every per-packet delay across all three handoffs."""
        spec = dataclasses.replace(
            _scenario(roaming_topology(), duration=8.0, protocol="tcp",
                      cca="copa", faults=self.ROAM),
            control=ControlSpec.default())
        summary = execute_spec(spec)
        assert summary.steering_moves == [(3.3, "client", "ap-a", "ap-b"),
                                          (5.3, "client", "ap-b", "ap-a")]
        assert summary.digest() == (
            "667404795e98033bdf7a558d404c19fdb1028961889ea6d4b507e12e8e796f2c")

    def test_roam_without_target_ap_rejected(self):
        with pytest.raises(ValueError, match="target AP"):
            FaultPlan.parse("roam@3+0.4/client:")


class TestCampaignTriangle:
    def test_serial_pool_cache_agree_on_multi_ap_spec(self, tmp_path):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=7,
                                                       seed=2),
                            duration=5.0, seed=2, warmup=2.0,
                            topology=interference_topology(ap_mode="zhuge",
                                                           interferers=3))
        serial = execute_spec(spec).as_dict()
        cache = ResultCache(root=tmp_path)
        pooled = run_specs([spec], jobs=2, cache=cache)[0].as_dict()
        assert pooled == serial
        replay = run_campaign([spec], jobs=2, cache=cache)
        assert replay.cached == 1
        assert replay.summaries()[0].as_dict() == serial
