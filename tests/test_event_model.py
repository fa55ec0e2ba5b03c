"""Macro-event datapath == the per-packet event chain it replaced.

The macro-event datapath cut the engine's common case to one dispatch
per txop or frame-batch instead of ~4 heap events per packet, and it is
the links' only path.  The contract is *bit-exact trajectory
equivalence* against the per-packet chains kept verbatim in
``tests/reference_links.py``: swapping ``ClassicWiredLink`` and
``ClassicWirelessLink`` into the topology builder must reproduce every
:meth:`ScenarioSummary.digest` — per-packet timestamps, delays, drops,
release times and delivery counts — differing only in
``events_processed`` telemetry.

Covers:

* the :class:`~repro.sim.engine.TimedRun` macro-run primitive (global
  (time, seq) ordering against heap/ready events, bounded runs,
  monotonicity enforcement, pending accounting);
* the cancel-compaction threshold regression (it must scale with the
  live population, not a fixed count — the fixed threshold caused
  O(live) rebuilds every ~64 cancels under fault storms);
* reference and default links == pinned golden digests, and
  reference == default on a controlled and a faulted scenario;
* hypothesis-generated random topologies — optionally with faults —
  run on both;
* the campaign triangle (serial == pool == cache) on the default links.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (ResultCache, ScenarioSpec, TraceSpec,
                            execute_spec, run_campaign, run_specs)
from repro.control.spec import ControlSpec
from repro.faults.spec import FaultPlan, FaultSpec
from repro.sim.engine import SimulationError, Simulator
from repro.topology import builder
from repro.topology.presets import interference_topology
from tests.reference_links import ClassicWiredLink, ClassicWirelessLink
from tests.test_topology import GOLDEN_PATH, golden_names, topology_specs


def _on_reference_links(run, spec):
    """``run(spec)`` with the per-packet reference links built in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "WiredLink", ClassicWiredLink)
        patch.setattr(builder, "WirelessLink", ClassicWirelessLink)
        return run(spec)


def _digest(spec):
    return execute_spec(spec).digest()


# ``classic``: the per-packet reference links; ``macro``: the links the
# topology builder uses.
LINK_SETS = {"classic": _on_reference_links,
             "macro": lambda run, spec: run(spec)}


# ---------------------------------------------------------------------------
# TimedRun: the macro-run engine primitive
# ---------------------------------------------------------------------------


class TestTimedRun:
    def test_interleaves_with_events_in_time_seq_order(self):
        """Run items and heap/ready events share one total order."""
        sim = Simulator()
        log = []
        run = sim.timed_run(lambda p: log.append((p, sim.now)))
        sim.schedule(1.0, lambda: log.append(("evt-a", sim.now)))  # seq 0
        run.push(1.0, "run-x")                                     # seq 1
        sim.schedule(1.0, lambda: log.append(("evt-b", sim.now)))  # seq 2
        run.push(2.0, "run-y")                                     # seq 3
        sim.schedule(1.5, lambda: log.append(("evt-c", sim.now)))  # seq 4
        sim.run()
        assert log == [("evt-a", 1.0), ("run-x", 1.0), ("evt-b", 1.0),
                       ("evt-c", 1.5), ("run-y", 2.0)]

    def test_zero_delay_schedule_respects_seq_against_run_items(self):
        """A zero-delay event scheduled by a run item gets a *later*
        seq than an already-pushed same-instant run item, so it fires
        after it — exactly the classic heap-event tie order."""
        sim = Simulator()
        log = []
        run = sim.timed_run(lambda p: (log.append(p),
                                       sim.schedule(0.0, lambda:
                                                    log.append("zero"))
                                       if p == "first" else None))
        run.push(1.0, "first")   # seq 0
        run.push(1.0, "second")  # seq 1; the zero-delay event gets seq 2
        sim.run()
        assert log == ["first", "second", "zero"]

    def test_push_out_of_order_raises(self):
        sim = Simulator()
        run = sim.timed_run(lambda p: None)
        run.push(2.0, "a")
        with pytest.raises(SimulationError, match="out of order"):
            run.push(1.0, "b")

    def test_push_in_past_raises(self):
        sim = Simulator()
        run = sim.timed_run(lambda p: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            run.push(1.0, "late")

    def test_run_until_pauses_and_resumes_mid_run(self):
        sim = Simulator()
        fired = []
        run = sim.timed_run(fired.append)
        for t in (1.0, 2.0, 3.0):
            run.push(t, t)
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.pending() == 1
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.pending() == 0

    def test_max_events_counts_run_items(self):
        sim = Simulator()
        fired = []
        run = sim.timed_run(fired.append)
        for t in (1.0, 2.0, 3.0, 4.0):
            run.push(t, t)
        sim.run(max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run(max_events=1)
        assert fired == [1.0, 2.0, 3.0]

    def test_push_during_dispatch_extends_current_run(self):
        """Items appended by the dispatcher itself keep firing (the
        txop self-extension pattern) without losing global ordering."""
        sim = Simulator()
        log = []

        def fire(p):
            log.append((p, sim.now))
            if p == "a":
                run.push(sim.now + 1.0, "b")

        run = sim.timed_run(fire)
        run.push(1.0, "a")
        sim.schedule(1.5, lambda: log.append(("evt", sim.now)))
        sim.run()
        assert log == [("a", 1.0), ("evt", 1.5), ("b", 2.0)]

    def test_pending_counts_run_backlog(self):
        sim = Simulator()
        run = sim.timed_run(lambda p: None)
        assert sim.pending() == 0
        run.push(1.0, "a")
        run.push(2.0, "b")
        sim.schedule(3.0, lambda: None)
        assert sim.pending() == 3

    def test_busy_run_releases_consumed_prefix(self):
        """A run that never drains (a never-idle link) must not retain
        the payloads it already fired: storage stays O(pending) over
        100k pushes, while firing order and ``pending()`` are exactly
        what one classic event per item gives."""
        def drive(use_run):
            sim = Simulator()
            log = []
            run = sim.timed_run(lambda k: log.append((k, sim.now)))
            pushed = peak = 0

            def produce():
                nonlocal pushed, peak
                due = sim.now + 0.050   # ~50 items pending at all times
                if use_run:
                    run.push(due, pushed)
                else:
                    sim.call_at(due, lambda k=pushed: log.append((k, sim.now)))
                pushed += 1
                log.append(("pending", sim.pending()))
                peak = max(peak, len(run._payloads))
                if pushed < 100_000:
                    sim.schedule(0.001, produce)

            sim.schedule(0.001, produce)
            sim.run()
            assert sim.pending() == 0
            return log, peak

        run_log, peak = drive(use_run=True)
        classic_log, _ = drive(use_run=False)
        assert run_log == classic_log
        assert len(run_log) == 200_000
        assert peak < 2048  # ~50 pending + the 1024-item release floor


# ---------------------------------------------------------------------------
# Cancelled events are tombstones: flagged, never compacted, skipped
# ---------------------------------------------------------------------------


class TestCancelCompaction:
    def test_no_rebuild_while_live_events_dominate(self):
        """Cancelling is an O(1) flag and nothing rebuilds the heap: a
        fault storm retiring 500 events and then 1 800 of 2 000 live
        ones leaves every tombstone in place, ``pending`` counts only
        the live, and the run drains exactly the live in order."""
        sim = Simulator()
        fired = []
        live = [sim.schedule(10.0 + i * 1e-3, lambda i=i: fired.append(i))
                for i in range(2000)]
        doomed = [sim.schedule(5.0 + i * 1e-3, lambda: fired.append(None))
                  for i in range(500)]
        for event in doomed:
            event.cancel()
        assert sim.pending() == 2000
        for event in live[:1800]:
            event.cancel()
        assert sim.pending() == 200
        assert len(sim._heap) == 2500
        sim.run()
        assert fired == list(range(1800, 2000))
        assert sim.events_processed == 200
        assert sim.pending() == 0 and not sim._heap
        assert sim.now == live[-1].time

    def test_small_simulations_never_compact(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(60)]
        for event in events:
            event.cancel()
        assert len(sim._heap) == 60
        sim.run()
        assert sim.events_processed == 0
        assert not sim._heap and sim.now == 0.0


# ---------------------------------------------------------------------------
# Golden equivalence: the reference links reproduce the pinned digests
# ---------------------------------------------------------------------------


@pytest.mark.bitexact
class TestGoldenEquivalence:
    @pytest.mark.parametrize("links", LINK_SETS)
    @pytest.mark.parametrize("name", golden_names())
    def test_resimulated_goldens_match_pins(self, links, name):
        """Both link sets reproduce the digest-v2 pins bit-exactly."""
        data = json.load(open(GOLDEN_PATH))
        spec = ScenarioSpec.from_dict(data[name]["spec"])
        assert LINK_SETS[links](_digest, spec) \
            == data[name]["summary_digest_v2"], \
            f"{name} diverged on the {links} links"

    def test_controlled_scenario_equivalent_across_modes(self):
        """Full control plane (controller + steering) on a 2-AP cell."""
        spec = ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=7, seed=3),
            duration=5.0, seed=3, warmup=2.0,
            topology=interference_topology(ap_mode="zhuge", interferers=2),
            control=ControlSpec(steering=True))
        assert _on_reference_links(_digest, spec) == _digest(spec)

    def test_faulted_scenario_equivalent_across_modes(self):
        spec = ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=7, seed=4),
            duration=5.0, seed=4, warmup=2.0,
            faults=FaultPlan(faults=(
                FaultSpec(kind="blackout", start=2.5, duration=0.4),
                FaultSpec(kind="loss_burst", start=3.5, duration=0.8,
                          magnitude=0.25))))
        assert _on_reference_links(_digest, spec) == _digest(spec)


# ---------------------------------------------------------------------------
# Hypothesis: random topologies agree with the reference links
# ---------------------------------------------------------------------------


def _run_or_error(spec):
    """Summary digest, or the exception type a bad spec raises.

    Invalid random topologies must fail identically on both link sets;
    valid ones must produce identical trajectories.
    """
    try:
        return execute_spec(spec).digest()
    except (ValueError, SimulationError) as exc:
        return type(exc).__name__


@pytest.mark.bitexact
class TestRandomTopologyEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(topo=topology_specs(), seed=st.integers(min_value=1, max_value=9),
           faulted=st.booleans())
    def test_classic_and_macro_agree(self, topo, seed, faulted):
        faults = None
        if faulted:
            faults = FaultPlan(faults=(
                FaultSpec(kind="blackout", start=1.5, duration=0.3),))
        spec = ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=5, seed=seed),
            duration=3.0, seed=seed, warmup=1.0,
            topology=topo, faults=faults)
        assert _on_reference_links(_run_or_error, spec) \
            == _run_or_error(spec)


# ---------------------------------------------------------------------------
# Campaign triangle on the macro datapath
# ---------------------------------------------------------------------------


class TestCampaignTriangleBothModes:
    # Pool workers build their own links, so the reference links cannot
    # be patched into them; the triangle runs on the builder's links.
    @pytest.mark.parametrize("mode", ("macro",))
    def test_serial_pool_cache_agree(self, mode, tmp_path):
        assert mode == Simulator.event_model
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=6,
                                                       seed=2),
                            duration=4.0, seed=2, warmup=2.0,
                            topology=interference_topology(ap_mode="zhuge",
                                                           interferers=2))
        serial = execute_spec(spec).as_dict()
        cache = ResultCache(root=tmp_path / mode)
        pooled = run_specs([spec], jobs=2, cache=cache)[0].as_dict()
        assert pooled == serial
        replay = run_campaign([spec], jobs=2, cache=cache)
        assert replay.cached == 1
        assert replay.summaries()[0].as_dict() == serial
