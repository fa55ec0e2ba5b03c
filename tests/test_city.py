"""repro.city: generator determinism, sharding, and the fleet merge.

The heart of this file is the decomposability contract: a generated
city simulated shard by shard is *bit-identical* to the same city
simulated whole — per flow, and therefore per fleet digest. Everything
else (generator determinism per seed, partition correctness, merge
exactness, streaming memory release) supports that contract.
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ScenarioSpec, TraceSpec, execute_spec, run_campaign
from repro.campaign.summary import FlowSummary, ScenarioSummary
from repro.city import (CITY_PRESETS, CityGenSpec, DelayCdfSketch,
                        FleetAccumulator, ShardingError, partition_topology)
from repro.city.merge import SKETCH_FLOOR, exact_quantiles
from repro.experiments.drivers.city import city_specs, run_city
from repro.metrics.stats import percentile, quantiles
from repro.topology.builder import TopologyBuilder
from repro.topology.presets import roaming_topology
from repro.topology.spec import EdgeSpec, FlowSpec, NodeSpec, TopologySpec

SMALL = dict(aps=4, seed=7, domain_size=1, roaming_share=0.3)


def _spec_for(topology, duration=10.0, seed=7):
    return ScenarioSpec(trace=TraceSpec.for_family("W2", duration=duration,
                                                   seed=seed),
                        protocol="rtp", cca="gcc", ap_mode="zhuge",
                        duration=duration, seed=seed, topology=topology)


def _builder_accepts(topology):
    """Full builder validation: edges wire, every flow routes."""
    TopologyBuilder(_spec_for(topology, duration=2.0))


def _summary(flows, events=0, packets=0):
    return ScenarioSummary(spec=_spec_for(None), flows=flows,
                           events_processed=events, ap_packets=packets)


# -- generator ----------------------------------------------------------------


class TestCityGen:
    def test_same_seed_same_topology(self):
        a = CityGenSpec.for_preset("apartment", aps=12, seed=5).build()
        b = CityGenSpec.for_preset("apartment", aps=12, seed=5).build()
        assert a == b
        assert json.dumps(a.as_dict(), sort_keys=True) == \
            json.dumps(b.as_dict(), sort_keys=True)

    def test_different_seed_different_topology(self):
        a = CityGenSpec.for_preset("grid", aps=12, seed=1).build()
        b = CityGenSpec.for_preset("grid", aps=12, seed=2).build()
        assert a != b

    def test_spec_round_trip_and_hash(self):
        gen = CityGenSpec.for_preset("stadium", aps=50, seed=9)
        again = CityGenSpec.from_dict(gen.as_dict())
        assert again == gen
        assert again.content_hash() == gen.content_hash()
        other = CityGenSpec.for_preset("stadium", aps=51, seed=9)
        assert other.content_hash() != gen.content_hash()

    def test_presets_validate(self):
        for preset in CITY_PRESETS:
            gen = CityGenSpec.for_preset(preset, aps=10, seed=3)
            topo = gen.build()  # TopologySpec.__post_init__ validates
            assert sum(1 for n in topo.nodes if n.role == "ap") == 10
            assert any(f.role == "rtc" for f in topo.flows)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            CityGenSpec.for_preset("nope")
        with pytest.raises(ValueError):
            CityGenSpec(aps=0)
        with pytest.raises(ValueError):
            CityGenSpec(clients_min=3, clients_max=2)
        with pytest.raises(ValueError):
            CityGenSpec(competitor_share=1.5)

    def test_flows_carry_seed_labels(self):
        topo = CityGenSpec.for_preset("grid", aps=3, seed=1).build()
        rtc = [f for f in topo.flows if f.role == "rtc"]
        assert all(f.seed_label == f"enc-{f.dst}" for f in rtc)

    @settings(max_examples=20, deadline=None)
    @given(preset=st.sampled_from(sorted(CITY_PRESETS)),
           aps=st.integers(min_value=1, max_value=25),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_seed_sweep_builds_valid_specs(self, preset, aps, seed):
        gen = CityGenSpec.for_preset(preset, aps=aps, seed=seed)
        topo = gen.build()
        assert topo == CityGenSpec.for_preset(preset, aps=aps,
                                              seed=seed).build()
        # The builder's own validation (routing, contention wiring,
        # rtc flows) must accept every generated city.
        _builder_accepts(topo)

    @settings(max_examples=15, deadline=None)
    @given(aps=st.integers(min_value=1, max_value=30),
           seed=st.integers(min_value=0, max_value=1000))
    def test_no_wireless_edge_crosses_shards(self, aps, seed):
        topo = CityGenSpec.for_preset("grid", aps=aps, seed=seed,
                                      roaming_share=0.2).build()
        plan = partition_topology(topo, max_shard_aps=3)
        shard_of = {}
        for index, shard in enumerate(plan.shards):
            for node in shard.nodes:
                if any(e.wireless and node.name in (e.src, e.dst)
                       for e in shard.edges):
                    assert shard_of.setdefault(node.name, index) == index
        for edge in topo.edges:
            if edge.wireless:
                assert shard_of[edge.src] == shard_of[edge.dst]


# -- contention domains -------------------------------------------------------


class TestContentionDomains:
    def test_channel_group_unions_aps(self):
        topo = CityGenSpec.for_preset("grid", aps=6, seed=1,
                                      channels=1, domain_size=3).build()
        domains = topo.contention_domains()
        assert len(domains) == 2  # 6 APs / (1 channel x 3 per block)
        members = {n for d in domains for n in d}
        assert "core" not in members  # infra joins no domain

    def test_roaming_topology_single_domain(self):
        # Both APs of the roaming preset share the "roam" group.
        domains = roaming_topology().contention_domains()
        assert len(domains) == 1
        assert {"ap-a", "ap-b", "client"} <= set(domains[0])

    def test_disabled_edges_still_union(self):
        # A disabled backup attachment is still a future contention
        # member: it must keep the client in its AP's domain.
        topo = TopologySpec(
            nodes=(NodeSpec("srv", "server"), NodeSpec("ap1", "ap"),
                   NodeSpec("ap2", "ap"), NodeSpec("c1", "client"),
                   NodeSpec("c2", "client")),
            edges=(EdgeSpec("srv", "ap1", kind="wired"),
                   EdgeSpec("srv", "ap2", kind="wired"),
                   EdgeSpec("ap1", "c1", kind="wifi"),
                   EdgeSpec("ap2", "c2", kind="wifi"),
                   EdgeSpec("ap2", "c1", kind="wifi", enabled=False)),
            flows=(FlowSpec("srv", "c1", role="rtc"),
                   FlowSpec("srv", "c2", role="rtc")))
        domains = topo.contention_domains()
        assert len(domains) == 1
        assert set(domains[0]) == {"ap1", "ap2", "c1", "c2"}

    def test_deterministic_order(self):
        topo = CityGenSpec.for_preset("grid", aps=9, seed=4).build()
        assert topo.contention_domains() == topo.contention_domains()


# -- sharder ------------------------------------------------------------------


class TestPartition:
    def test_single_shard_is_the_original_spec(self):
        topo = CityGenSpec.for_preset("grid", **SMALL).build()
        plan = partition_topology(topo, max_shard_aps=0)
        assert len(plan.shards) == 1
        assert plan.shards[0] == topo

    def test_everything_lands_exactly_once(self):
        topo = CityGenSpec.for_preset("apartment", aps=10, seed=3).build()
        plan = partition_topology(topo, max_shard_aps=4)
        assert len(plan.shards) > 1
        placed_flows = [f for s in plan.shards for f in s.flows]
        assert sorted(f.dst for f in placed_flows) == \
            sorted(f.dst for f in topo.flows)
        wireless = [e.name for s in plan.shards for e in s.edges
                    if e.wireless]
        assert sorted(wireless) == sorted(e.name for e in topo.edges
                                          if e.wireless)

    def test_infra_is_replicated(self):
        topo = CityGenSpec.for_preset("grid", aps=6, seed=1).build()
        plan = partition_topology(topo, max_shard_aps=2)
        for shard in plan.shards:
            assert any(n.name == "core" for n in shard.nodes)

    def test_shards_validate_and_build(self):
        topo = CityGenSpec.for_preset("grid", aps=6, seed=2,
                                      roaming_share=0.5).build()
        for shard in partition_topology(topo, max_shard_aps=2).shards:
            _builder_accepts(shard)

    def test_oversized_domain_gets_own_shard(self):
        topo = CityGenSpec.for_preset("stadium", aps=12, seed=1).build()
        # 6 channels x 48 APs/domain: only 6 domains, each 2 APs.
        plan = partition_topology(topo, max_shard_aps=1)
        assert all(sum(1 for n in s.nodes if n.role == "ap") == 2
                   for s in plan.shards)

    def test_infra_to_infra_flow_rejected(self):
        topo = CityGenSpec.for_preset("grid", aps=2, seed=1).build()
        bad = TopologySpec(
            nodes=topo.nodes + (NodeSpec("aux", "server"),),
            edges=topo.edges + (EdgeSpec("core", "aux", kind="wired"),),
            flows=topo.flows + (FlowSpec("core", "aux",
                                         role="competitor"),))
        with pytest.raises(ShardingError):
            partition_topology(bad, max_shard_aps=1)

    def test_plan_is_deterministic(self):
        topo = CityGenSpec.for_preset("apartment", aps=15, seed=6).build()
        assert partition_topology(topo, 4) == partition_topology(topo, 4)


# -- the decomposability contract ---------------------------------------------


class TestShardBitIdentity:
    def test_shard_equals_whole_city_slice(self):
        """Each shard, simulated alone, reproduces its flows' samples
        bit for bit from the whole-city simulation (digest-pinning the
        sharder's core claim)."""
        topo = CityGenSpec.for_preset("grid", **SMALL).build()
        plan = partition_topology(topo, max_shard_aps=1)
        assert len(plan.shards) == 4
        whole = execute_spec(_spec_for(topo))
        reference = {(f.src, f.dst, f.role): summary
                     for f, summary in zip(topo.flows, whole.flows)}
        for shard in plan.shards:
            result = execute_spec(_spec_for(shard))
            for flow, summary in zip(shard.flows, result.flows):
                ref = reference[(flow.src, flow.dst, flow.role)]
                assert summary.rtt_values == ref.rtt_values
                assert summary.frame_delays == ref.frame_delays
                assert summary.goodput_bps == ref.goodput_bps
                assert summary.mean_bitrate_bps == ref.mean_bitrate_bps

    def test_sharded_fleet_digest_matches_unsharded(self):
        gen = CityGenSpec.for_preset("grid", **SMALL)
        sharded = run_city(gen, duration=10.0, shard_aps=1, cache=None)
        whole = run_city(gen, duration=10.0, shard_aps=0, cache=None)
        assert sharded.fleet.shards == 4
        assert whole.fleet.shards == 1
        assert sharded.fleet.digest() == whole.fleet.digest()
        assert sharded.fleet.rtt_p99 == whole.fleet.rtt_p99

    def test_shard_cells_cache_standalone(self, tmp_path):
        """A shard's ScenarioSpec hashes like any standalone topology
        run: re-running the city is pure cache hits."""
        gen = CityGenSpec.for_preset("grid", aps=2, seed=3)
        cold = run_city(gen, duration=8.0, shard_aps=1,
                        cache=str(tmp_path))
        warm = run_city(gen, duration=8.0, shard_aps=1,
                        cache=str(tmp_path))
        assert cold.campaign.cached == 0
        assert warm.campaign.cached == len(warm.campaign.cells)
        assert warm.fleet.digest() == cold.fleet.digest()


# -- DelayCdfSketch -----------------------------------------------------------


class TestDelayCdfSketch:
    def test_merge_equals_pooled(self):
        values = [0.001 * i for i in range(1, 400)]
        pooled = DelayCdfSketch()
        pooled.add_many(values)
        left, right = DelayCdfSketch(), DelayCdfSketch()
        left.add_many(values[::2])
        right.add_many(values[1::2])
        left.merge(right)
        assert left.counts == pooled.counts
        assert left.total == pooled.total

    def test_quantile_relative_error(self):
        values = [0.005 + 0.0001 * i for i in range(5000)]
        sketch = DelayCdfSketch()
        sketch.add_many(values)
        for q in (50, 95, 99):
            exact = percentile(values, q)
            assert abs(sketch.quantile(q) - exact) / exact < 0.02

    def test_round_trip(self):
        sketch = DelayCdfSketch()
        sketch.add_many([0.01, 0.02, 0.5, 3.0])
        again = DelayCdfSketch.from_dict(sketch.as_dict())
        assert again.counts == sketch.counts
        assert again.quantile(99) == sketch.quantile(99)

    def test_empty_and_floor(self):
        sketch = DelayCdfSketch()
        assert sketch.quantile(99) == 0.0
        sketch.add(0.0)
        assert sketch.quantile(50) == pytest.approx(1e-4)


# -- FleetAccumulator ---------------------------------------------------------


def _bucket_edge(index):
    return DelayCdfSketch.bucket_edges(index)[0]


#: Samples that stress the selection: any delay, zeros of both signs
#: and values at or under the floor (bucket 0), and each bucket's
#: lower edge with the double just below it (the last of the bucket
#: before).
_SAMPLES = st.one_of(
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from([0.0, -0.0, SKETCH_FLOOR, SKETCH_FLOOR / 2]),
    st.integers(min_value=1, max_value=600).map(_bucket_edge),
    st.integers(min_value=1, max_value=600).map(
        lambda index: math.nextafter(_bucket_edge(index), -math.inf)),
)


@st.composite
def _sharded_columns(draw, shards, min_size):
    """One column of samples (with repeats) cut into ``shards``
    pieces, some of them possibly empty."""
    values = draw(st.lists(_SAMPLES, min_size=min_size, max_size=60))
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=20))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)),
                                min_size=shards - 1, max_size=shards - 1)))
    bounds = [0, *cuts, len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


@st.composite
def _fleets(draw):
    shards = draw(st.integers(min_value=1, max_value=8))
    return (draw(_sharded_columns(shards, min_size=1)),
            draw(_sharded_columns(shards, min_size=0)))


def _bits(values):
    return [value.hex() for value in values]


class TestFleetAccumulator:
    def _flows(self, rtts, goodput=1e6):
        return [FlowSummary(rtt_values=list(rtts),
                            frame_delays=list(rtts),
                            goodput_bps=goodput, mean_bitrate_bps=goodput)]

    def test_completion_order_does_not_matter(self):
        summaries = {0: _summary(self._flows([0.01, 0.02], 1e6)),
                     1: _summary(self._flows([0.03, 0.30], 2e6)),
                     2: _summary(self._flows([0.05], 3e6))}
        forward, backward = FleetAccumulator(), FleetAccumulator()
        for index in (0, 1, 2):
            forward.add(index, summaries[index])
        for index in (2, 0, 1):
            backward.add(index, summaries[index])
        assert forward.finalize().digest() == backward.finalize().digest()

    def test_exact_until_budget_then_sketch(self):
        small = FleetAccumulator(sample_budget=8)
        small.add(0, _summary(self._flows([0.01, 0.02, 0.03])))
        assert small.exact  # 6 samples (rtt+frame) <= 8
        small.add(1, _summary(self._flows([0.04, 0.05])))
        assert not small.exact  # 10 samples (rtt+frame) > 8
        fleet = small.finalize()
        assert not fleet.exact
        assert fleet.rtt_samples == 5
        # Tail ratios stay exact (counted, not sketched).
        assert fleet.rtt_tail_ratio == 0.0

    @settings(max_examples=200, deadline=None)
    @given(fleet=_fleets())
    def test_selection_equals_sort(self, fleet):
        """Exact fleet percentiles are the sorted pool's, bit for bit."""
        rtt_columns, frame_columns = fleet
        acc = FleetAccumulator()
        for index, (rtts, frames) in enumerate(zip(rtt_columns,
                                                   frame_columns)):
            acc.add(index, _summary([FlowSummary(rtt_values=rtts,
                                                 frame_delays=frames)]))
        out = acc.finalize()
        assert out.exact
        rtts = [v for column in rtt_columns for v in column]
        frames = [v for column in frame_columns for v in column]
        assert _bits([out.rtt_p50, out.rtt_p95, out.rtt_p99]) == _bits(
            quantiles(rtts, (50, 95, 99)))
        assert _bits([out.frame_p99]) == _bits(
            quantiles(frames, (99,)) if frames else [0.0])
        sketch = DelayCdfSketch()
        sketch.add_many(rtts)
        qs = (0, 50, 95, 99, 100)
        assert _bits(exact_quantiles(sketch, rtt_columns, qs)) == _bits(
            quantiles(rtts, qs))

    @settings(max_examples=200, deadline=None)
    @given(fleet=_fleets(), cap=st.integers(min_value=1, max_value=4))
    def test_narrowed_selection_equals_sort(self, fleet, cap):
        """A bucket over the cap is narrowed by counting before it is
        sorted; equal samples past the last split keep the scan order."""
        rtt_columns, _frames = fleet
        rtts = [v for column in rtt_columns for v in column]
        sketch = DelayCdfSketch()
        sketch.add_many(rtts)
        qs = (0, 1, 50, 95, 99, 100)
        with mock.patch("repro.city.merge.SELECT_CAP", cap):
            selected = exact_quantiles(sketch, rtt_columns, qs)
        assert _bits(selected) == _bits(quantiles(rtts, qs))

    def test_selection_rejects_a_sketch_that_disagrees(self):
        sketch = DelayCdfSketch()
        sketch.add_many([0.01, 0.02, 0.03])
        with pytest.raises(RuntimeError, match="bucket"):
            exact_quantiles(sketch, [[0.01, 0.02], [0.05]], (100,))

    def test_duplicate_shard_rejected(self):
        acc = FleetAccumulator()
        acc.add(0, _summary(self._flows([0.01])))
        with pytest.raises(ValueError):
            acc.add(0, _summary(self._flows([0.01])))

    def test_fairness_and_totals(self):
        acc = FleetAccumulator()
        acc.add(0, _summary(self._flows([0.01], goodput=2e6)))
        acc.add(1, _summary(self._flows([0.01], goodput=2e6)))
        fleet = acc.finalize()
        assert fleet.fairness == pytest.approx(1.0)
        assert fleet.goodput_bps_total == 4e6
        assert fleet.flows == 2

    def test_digest_excludes_shard_count_only(self):
        one, two = FleetAccumulator(), FleetAccumulator()
        one.add(0, _summary(self._flows([0.01]) + self._flows([0.02])))
        two.add(0, _summary(self._flows([0.01])))
        two.add(1, _summary(self._flows([0.02])))
        a, b = one.finalize(), two.finalize()
        assert a.shards == 1 and b.shards == 2
        assert a.digest() == b.digest()


# -- streaming ----------------------------------------------------------------


class TestStreamingConsume:
    def test_consume_releases_summaries(self):
        gen = CityGenSpec.for_preset("grid", aps=2, seed=3)
        _, specs = city_specs(gen, duration=8.0, shard_aps=1)
        seen = []
        result = run_campaign(
            specs, jobs=0, cache=None,
            consume=lambda cell: seen.append(cell.index))
        assert seen == [cell.index for cell in result.cells]
        assert all(cell.summary is None for cell in result.cells)
        assert all(cell.status == "ok" for cell in result.cells)


# -- CLI ----------------------------------------------------------------------


class TestCityCli:
    def test_campaign_city_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "fleet.json"
        args = ["campaign", "--city", "grid", "--aps", "3",
                "--shard-aps", "1", "--duration", "8",
                "--cache-dir", str(tmp_path / "cache"),
                "--quiet", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["fleet"]["shards"] == 3
        assert payload["digest"]
        capsys.readouterr()
        # Warm rerun: pure cache hits, same digest.
        assert main(args + ["--assert-cached"]) == 0
        assert json.loads(out.read_text())["digest"] == payload["digest"]

    def test_topology_generate_round_trips(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "city.json"
        assert main(["topology", "generate", "--city", "apartment",
                     "--aps", "4", "--city-seed", "2",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        spec = TopologySpec.from_dict(payload)
        expected = CityGenSpec.for_preset("apartment", aps=4,
                                          seed=2).build()
        assert spec == expected
