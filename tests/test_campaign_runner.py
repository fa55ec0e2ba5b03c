"""Campaign runner tests: determinism, ordering, and failure isolation.

The failure-path tests inject module-level worker functions (they must
be picklable for the process pool): slow cells for timeouts, raising
cells for exceptions, and ``os._exit`` cells for hard worker crashes.
"""

import gc
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from repro.campaign import (CampaignError, ResultCache, ScenarioSpec,
                            TraceSpec, execute_spec, run_campaign,
                            run_specs)
from repro.campaign.summary import ScenarioSummary
from repro.faults import FaultPlan
from repro.topology.builder import TopologyBuilder

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


class TestOneResultType:
    def test_builder_run_is_the_campaign_summary(self):
        """In-process, serial-worker and pooled runs hand back the same
        summary type with the same payload."""
        spec = ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=6.0, seed=1),
            protocol="rtp", ap_mode="zhuge", duration=6.0, warmup=2.0,
            seed=1, record_predictions=True,
            faults=FaultPlan.parse("blackout@3+0.5,reset@4"))
        summary = TopologyBuilder(spec).run()
        assert isinstance(summary, ScenarioSummary)
        assert len(summary.predicted) > 0 and summary.fault_log
        payload = summary.as_dict()
        assert payload == execute_spec(spec).as_dict()
        assert payload == run_specs([spec], jobs=2)[0].as_dict()
        assert (ScenarioSummary.from_dict(payload).digest()
                == summary.digest())
        assert ScenarioSummary.from_result(summary, summary.spec) is summary


class TestPoolStackIsLazy:
    def test_campaign_and_city_imports_leave_it_out(self):
        """Only building a pool imports ``multiprocessing`` and
        ``concurrent.futures``: a serial campaign never pays for them."""
        code = ("import sys, repro.campaign, repro.city, "
                "repro.experiments.drivers.city\n"
                "print(sorted(name for name in ('multiprocessing', "
                "'concurrent.futures') if name in sys.modules))")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "[]"


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


class TestCacheResume:
    """A killed campaign resumes by re-running on the same cache."""

    def test_consume_raise_leaves_no_durable_trace(self, tmp_path):
        """A raising consume must not cache its cell: the re-run
        recomputes and re-consumes it instead of serving a cell whose
        consumption never happened."""
        cache = ResultCache(root=tmp_path / "cache")
        specs = [_stub_spec(seed) for seed in (1, 2, 3)]

        def consume(cell):
            if cell.index == 1:
                raise RuntimeError("consumer exploded")

        with pytest.raises(RuntimeError, match="consumer exploded"):
            run_campaign(specs, cache=cache, worker=fake_worker,
                         consume=consume)
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[1]) is None
        seen = []
        result = run_campaign(specs, cache=cache, worker=fake_worker,
                              consume=lambda cell: seen.append(
                                  (cell.index, cell.cached,
                                   cell.summary.events_processed)))
        assert result.failed == 0
        assert result.cached == 1
        assert sorted(seen) == [(0, True, 1), (1, False, 2), (2, False, 3)]

    def test_failed_cells_get_fresh_budget_on_resume(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        spec = _stub_spec(CRASH_SEED)
        for _ in range(2):
            failed = run_campaign([spec], cache=cache,
                                  worker=raising_worker, retries=1,
                                  backoff_s=0.01)
            assert failed.failed == 1
            assert failed.cells[0].attempts == 2  # the whole budget again
            assert cache.get(spec) is None  # failures are never cached
        result = run_campaign([spec], cache=cache, worker=fake_worker)
        assert (result.failed, result.cached, result.progress.ok) == (0, 0, 1)
        assert result.cells[0].summary.events_processed == CRASH_SEED


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


class TestCellBoundaryReclamation:
    def test_cell_graph_is_dead_when_execute_spec_returns(self,
                                                          monkeypatch):
        """With the automatic collector off, nothing but
        ``execute_spec`` itself can have freed the cycle."""
        born = []

        class Builder:
            """What a finished cell leaves behind: a graph only the
            cycle collector can free (builder <-> closures <-> links
            <-> timers)."""

            def __init__(self, spec):
                self.spec = spec
                self.graph = self
                born.append(weakref.ref(self))

            def run(self):
                return ScenarioSummary(spec=self.spec)

        monkeypatch.setattr("repro.campaign.runner.TopologyBuilder", Builder)
        gc.disable()
        try:
            summary = execute_spec(_stub_spec())
            assert born[0]() is None
        finally:
            gc.enable()
        assert summary.flows == []
