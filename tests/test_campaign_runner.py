"""Campaign runner tests: determinism, ordering, and failure isolation.

The failure-path tests inject module-level worker functions (they must
be picklable for the process pool): slow cells for timeouts, raising
cells for exceptions, and ``os._exit`` cells for hard worker crashes.
"""

import gc
import os
import time
import weakref

import pytest

from repro.campaign import (CampaignError, ResultCache, ScenarioSpec,
                            TraceSpec, execute_spec, run_campaign,
                            run_specs)
from repro.campaign.summary import ScenarioSummary

CRASH_SEED = 99  # cells with this seed misbehave in the injected workers


def _sim_spec(seed: int = 1, duration: float = 5.0) -> ScenarioSpec:
    return ScenarioSpec(trace=TraceSpec.for_family("W2", duration=duration,
                                                   seed=seed),
                        duration=duration, seed=seed, warmup=2.0)


def _stub_spec(seed: int = 1) -> ScenarioSpec:
    return ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                        duration=1.0, seed=seed)


# -- injected workers (module-level: the pool pickles them by name) -----------

def fake_worker(spec):
    return ScenarioSummary(spec=spec, events_processed=spec.seed)


def staggered_worker(spec):
    # Later cells finish first, to scramble completion order.
    time.sleep(0.05 * max(0, 5 - spec.seed))
    return ScenarioSummary(spec=spec, events_processed=spec.seed)


def sleepy_worker(spec):
    if spec.seed == CRASH_SEED:
        time.sleep(20.0)
    return ScenarioSummary(spec=spec, events_processed=spec.seed)


def raising_worker(spec):
    if spec.seed == CRASH_SEED:
        raise ValueError("injected failure")
    return ScenarioSummary(spec=spec, events_processed=spec.seed)


def crashing_worker(spec):
    if spec.seed == CRASH_SEED:
        os._exit(3)  # hard death: breaks the whole worker process
    return ScenarioSummary(spec=spec, events_processed=spec.seed)


class TestDeterminism:
    def test_inprocess_subprocess_and_cache_agree(self, tmp_path):
        """The acceptance triangle: serial == pool == cache hit."""
        spec = _sim_spec()
        serial = execute_spec(spec).as_dict()

        cache = ResultCache(root=tmp_path)
        pooled = run_specs([spec], jobs=2, cache=cache)[0].as_dict()
        assert pooled == serial

        replay = run_campaign([spec], jobs=2, cache=cache)
        assert replay.cached == 1
        assert replay.summaries()[0].as_dict() == serial

    def test_results_keep_input_order(self):
        specs = [_stub_spec(seed=s) for s in (3, 1, 4, 2)]
        summaries = run_specs(specs, jobs=2, worker=staggered_worker)
        assert [s.events_processed for s in summaries] == [3, 1, 4, 2]


class TestCaching:
    def test_repeat_campaign_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        specs = [_stub_spec(seed=s) for s in (1, 2, 3)]
        first = run_campaign(specs, cache=cache, worker=fake_worker)
        assert first.cached == 0
        second = run_campaign(specs, cache=cache, worker=fake_worker)
        assert second.cached == 3
        assert second.progress.ok == 0  # nothing recomputed
        assert ([s.events_processed for s in second.summaries()]
                == [1, 2, 3])

    def test_corrupted_entry_reruns_cell(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _stub_spec()
        run_campaign([spec], cache=cache, worker=fake_worker)
        entry = cache.path_for(spec.content_hash())
        entry.write_text("garbage")
        rerun = run_campaign([spec], cache=cache, worker=fake_worker)
        assert rerun.cached == 0
        assert rerun.ok == 1
        assert rerun.summaries()[0].events_processed == spec.seed
        # ... and the repaired entry serves the next run.
        assert run_campaign([spec], cache=cache,
                            worker=fake_worker).cached == 1


class TestFailurePaths:
    def test_timeout_fails_only_its_cell(self):
        specs = [_stub_spec(1), _stub_spec(CRASH_SEED), _stub_spec(2)]
        result = run_campaign(specs, jobs=2, worker=sleepy_worker,
                              timeout=0.4, retries=0, backoff_s=0.01)
        assert result.failed == 1
        assert result.ok == 2
        failed = result.failures()[0]
        assert failed.spec.seed == CRASH_SEED
        assert "timeout" in failed.error

    def test_timeout_in_serial_mode(self):
        result = run_campaign([_stub_spec(CRASH_SEED)], jobs=0,
                              worker=sleepy_worker, timeout=0.3,
                              retries=0)
        assert result.failed == 1
        assert "timeout" in result.failures()[0].error

    def test_exception_consumes_retry_budget(self):
        specs = [_stub_spec(1), _stub_spec(CRASH_SEED)]
        result = run_campaign(specs, jobs=2, worker=raising_worker,
                              retries=2, backoff_s=0.01)
        assert result.ok == 1
        failed = result.failures()[0]
        assert failed.attempts == 3  # first try + 2 retries
        assert "injected failure" in failed.error
        assert result.progress.retries == 2

    def test_worker_crash_fails_one_cell_and_pool_recovers(self):
        # A hard-dying worker breaks the pool; the runner must rebuild
        # it and resume cautiously so repeated crashes burn only the
        # crasher's retry budget — healthy cells all finish ok.
        specs = [_stub_spec(1), _stub_spec(2), _stub_spec(CRASH_SEED)]
        result = run_campaign(specs, jobs=2, worker=crashing_worker,
                              retries=1, backoff_s=0.01)
        assert result.failed == 1
        failed = result.failures()[0]
        assert failed.spec.seed == CRASH_SEED
        assert failed.attempts == 2
        assert "died" in failed.error
        ok_cells = [c for c in result.cells if c.status == "ok"]
        assert sorted(c.spec.seed for c in ok_cells) == [1, 2]

    def test_run_specs_raises_on_failure(self):
        with pytest.raises(CampaignError, match="injected failure"):
            run_specs([_stub_spec(CRASH_SEED)], worker=raising_worker,
                      retries=0)


class TestTelemetry:
    def test_progress_counters_and_rates(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        specs = [_stub_spec(seed=s) for s in (1, 2)]
        run_campaign(specs, cache=cache, worker=fake_worker)
        events = []

        def callback(event, cell, progress):
            events.append((event, cell.index))

        result = run_campaign(specs + [_stub_spec(3)], cache=cache,
                              worker=fake_worker, progress=callback)
        stats = result.progress
        assert stats.total == 3
        assert stats.cached == 2
        assert stats.ok == 1
        assert stats.done == 3
        assert stats.cells_per_sec() > 0
        assert stats.eta_s() == 0.0
        payload = stats.as_dict()
        assert payload["done"] == 3
        assert {e for e, _ in events} == {"cached", "ok"}
        assert stats.line().startswith("[3/3]")


class _CyclicResult:
    """What a finished cell leaves behind: a graph only the cycle
    collector can free (builder <-> closures <-> links <-> timers)."""

    flows = predicted = actual = fault_log = ()
    watchdog_transitions = control_transitions = steering_moves = ()
    events_processed = ap_packets = 0

    def __init__(self):
        self.builder = self


class TestCellBoundaryReclamation:
    def test_cell_graph_is_dead_when_execute_spec_returns(self,
                                                          monkeypatch):
        """With the automatic collector off, nothing but
        ``execute_spec`` itself can have freed the cycle."""
        born = []

        class Builder:
            def __init__(self, spec):
                pass

            def run(self):
                result = _CyclicResult()
                born.append(weakref.ref(result))
                return result

        monkeypatch.setattr("repro.campaign.runner.TopologyBuilder", Builder)
        gc.disable()
        try:
            summary = execute_spec(_stub_spec())
            assert born[0]() is None
        finally:
            gc.enable()
        assert summary.flows == []
