"""Chaos-harness tests: planned harness faults and the kill-resume pin.

The centerpiece is the digest pin: a city campaign killed mid-run
(really killed — ``os._exit`` from a planned chaos action in a
subprocess, or a result cache missing the entries a crash lost) and
then re-run on the same cache must produce a fleet digest
bit-identical to a run that never crashed. Everything else here
exercises the individual failure injectors: worker kills, injected
OOM, hung cells ended by the ``--timeout`` alarm, cache corruption, and
pool workers outliving a killed driver.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import ResultCache, ScenarioSpec, TraceSpec, run_campaign
from repro.city.gen import CityGenSpec
from repro.experiments.drivers.city import city_specs, run_city
from repro.faults.chaos import (CHAOS_EXIT_CODE, ChaosPlan, ChaosState,
                                ChaosWorker, corrupt_entry)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: One tiny city shared by every digest test: 3 contention domains,
#: 8 s per shard (3 s of samples past the 5 s warmup) — big enough to
#: shard and produce real percentiles, small enough for CI.
CITY_ARGS = dict(preset="grid", aps=3, seed=7)
CITY_RUN = dict(duration=8.0, shard_aps=1)


def _gen() -> CityGenSpec:
    return CityGenSpec.for_preset(CITY_ARGS["preset"],
                                  aps=CITY_ARGS["aps"],
                                  seed=CITY_ARGS["seed"])


@pytest.fixture(scope="module")
def reference_digest() -> str:
    """Fleet digest of the uninterrupted run every chaos run must match."""
    return run_city(_gen(), **CITY_RUN).fleet.digest()


def _session_members(sid: int) -> list:
    """Live (non-zombie) pids whose session id is ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while listing
        # After the command name: state, ppid, pgrp, session, ...
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def _stub_spec(seed: int = 1) -> ScenarioSpec:
    return ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                        duration=1.0, seed=seed)


class TestChaosPlan:
    def test_parse_roundtrip(self):
        plan = ChaosPlan.parse(" kill-worker@2, oom@4 ,exit-run@3")
        assert plan.as_spec() == "kill-worker@2,oom@4,exit-run@3"
        assert [a.kind for a in plan.worker_actions()] == ["kill-worker",
                                                           "oom"]
        assert [a.kind for a in plan.driver_actions()] == ["exit-run"]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosPlan.parse("meteor-strike@1")

    def test_missing_count_rejected(self):
        with pytest.raises(ValueError, match="@<count>"):
            ChaosPlan.parse("oom")

    @pytest.mark.parametrize("spec", ["hang@x", "hang@0", "hang@-3",
                                      "exit-run@1.5", "oom@"])
    def test_count_must_be_a_whole_number_from_one(self, spec):
        # A count below 1 would never fire: refuse it instead.
        with pytest.raises(ValueError, match="count >= 1"):
            ChaosPlan.parse(spec)


class TestChaosState:
    def test_counter_is_monotonic(self, tmp_path):
        state = ChaosState(tmp_path)
        assert [state.next_count() for _ in range(3)] == [1, 2, 3]
        assert state.count() == 3

    def test_concurrent_counts_are_unique(self, tmp_path):
        """Every caller gets its own count even when appends interleave
        (pool workers bump one counter; a duplicate skips a planned
        action's count and the action never fires)."""
        from concurrent.futures import ThreadPoolExecutor
        state = ChaosState(tmp_path)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: [state.next_count()
                                                for _ in range(200)])
                           for _ in range(8)]
                counts = [c for f in futures for c in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(old)
        assert sorted(counts) == list(range(1, 1601))

    def test_fire_once_fires_once(self, tmp_path):
        state = ChaosState(tmp_path)
        assert state.fire_once("oom@2") is True
        assert state.fire_once("oom@2") is False
        # A fresh object over the same directory (another process, a
        # resumed run) still sees the claim.
        assert ChaosState(tmp_path).fire_once("oom@2") is False


class TestWorkerFaults:
    def test_injected_oom_is_retried(self, tmp_path):
        worker = ChaosWorker("oom@1", tmp_path / "chaos")
        result = run_campaign([_stub_spec()], worker=worker,
                              retries=1, backoff_s=0.01)
        assert result.failed == 0
        assert result.progress.retries == 1
        assert result.cells[0].attempts == 1

    def test_worker_kill_recovers_via_pool_rebuild(self, tmp_path):
        """A chaos SIGKILL breaks the pool; the cautious restart path
        retries every in-flight cell to completion."""
        worker = ChaosWorker("kill-worker@1", tmp_path / "chaos")
        specs = [_stub_spec(seed) for seed in (1, 2, 3)]
        result = run_campaign(specs, jobs=2, worker=worker,
                              retries=2, backoff_s=0.01)
        assert result.failed == 0
        assert result.progress.retries >= 1
        assert len(result.summaries()) == 3

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        """``hang@1`` sleeps an hour inside a pool worker; the cell's
        SIGALRM deadline interrupts the sleep and the retry finishes."""
        worker = ChaosWorker("hang@1", tmp_path / "chaos")
        specs = [_stub_spec(seed) for seed in (1, 2)]
        retried = []

        def progress(event, cell, stats):
            if event == "retry":
                retried.append(cell.error)

        result = run_campaign(specs, jobs=2, worker=worker,
                              timeout=2.0, retries=2, backoff_s=0.01,
                              progress=progress)
        assert result.failed == 0
        assert len(result.summaries()) == 2
        assert result.progress.retries == 1
        assert retried == ["cell exceeded 2s timeout"]

    def test_killed_driver_leaves_no_worker(self, tmp_path):
        """A driver hard-exited by ``exit-run@1`` must not leave its
        pool workers behind holding its pipes: ``communicate`` returns
        and the driver's session empties."""
        if not Path("/proc/self/stat").exists():
            pytest.skip("needs /proc to list the session's processes")
        argv = [sys.executable, "-m", "repro", "campaign",
                "--city", CITY_ARGS["preset"],
                "--aps", str(CITY_ARGS["aps"]),
                "--city-seed", str(CITY_ARGS["seed"]),
                "--shard-aps", str(CITY_RUN["shard_aps"]),
                "--duration", str(CITY_RUN["duration"]),
                "--jobs", "2", "--no-cache", "--quiet",
                "--chaos", "exit-run@1", "--chaos-dir",
                str(tmp_path / "chaos")]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        driver = subprocess.Popen(argv, cwd=REPO_ROOT, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  start_new_session=True)
        try:
            _out, err = driver.communicate(timeout=30)
            assert driver.returncode == CHAOS_EXIT_CODE, err
            deadline = time.monotonic() + 10.0
            while (_session_members(driver.pid)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert _session_members(driver.pid) == []
        finally:
            try:
                os.killpg(driver.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            driver.communicate()


class TestCacheChaos:
    def test_corrupt_entry_quarantined_then_recomputed(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        specs = [_stub_spec(seed) for seed in (1, 2)]
        run_campaign(specs, cache=cache)
        damaged = corrupt_entry(cache.root, index=0, mode="truncate")
        assert damaged is not None
        rerun = run_campaign(specs, cache=cache)
        assert rerun.failed == 0
        assert rerun.cached == 1   # the undamaged entry still serves
        assert rerun.progress.ok == 1  # the damaged one recomputed cold
        assert cache.stats.quarantined == 1
        report = cache.verify()
        assert report.clean  # damage already quarantined on first touch

    def test_bitflip_detected_by_checksum(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        spec = _stub_spec()
        run_campaign([spec], cache=cache)
        assert corrupt_entry(cache.root, mode="flip") is not None
        assert cache.get(spec) is None
        assert cache.stats.quarantined == 1


class TestAccumulatorState:
    def test_sample_budget_degrades_to_sketch(self):
        # A 1-sample budget trips on the first shard: the fleet answer
        # comes from the sketches, and its digest is pinned because the
        # budget is part of the request, not of the host.
        result = run_city(_gen(), **CITY_RUN, sample_budget=1)
        assert result.fleet.exact is False
        assert result.fleet.rtt_samples > 0
        assert result.fleet.digest().startswith("258d2e6e489137ea")


class TestKillResumeDigestPin:
    """The acceptance pin: kill mid-campaign, resume, digest unchanged."""

    def test_lost_cache_entries_recompute_matches(self, tmp_path,
                                                  reference_digest):
        cache = ResultCache(root=tmp_path / "cache")
        run_city(_gen(), **CITY_RUN, cache=cache)
        # Crash after one shard: the other shards never reached the
        # cache.
        _plan, specs = city_specs(_gen(), **CITY_RUN)
        for spec in specs[1:]:
            cache.path_for(spec.content_hash()).unlink()
        resumed = run_city(_gen(), **CITY_RUN, cache=cache)
        assert resumed.fleet.digest() == reference_digest
        assert resumed.campaign.cached == 1
        assert resumed.campaign.progress.ok == len(specs) - 1

    def test_real_kill_and_cli_resume_matches(self, tmp_path,
                                              reference_digest):
        """Drive the CLI, let chaos ``exit-run@2`` hard-kill it after
        the second shard, re-run on the same cache, and pin the digest.

        The exit fires at the progress event, which lands *before* the
        completing cell's cache write — exactly like a kill racing the
        fsync. The crash therefore loses the in-flight shard (the cache
        holds shard 1 of 3) and the re-run must serve one shard and
        recompute two, bit-identically."""
        out = tmp_path / "fleet.json"
        base = [sys.executable, "-m", "repro", "campaign",
                "--city", CITY_ARGS["preset"],
                "--aps", str(CITY_ARGS["aps"]),
                "--city-seed", str(CITY_ARGS["seed"]),
                "--shard-aps", str(CITY_RUN["shard_aps"]),
                "--duration", str(CITY_RUN["duration"]),
                "--quiet", "--cache-dir", str(tmp_path / "cache")]
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        killed = subprocess.run(
            base + ["--chaos", "exit-run@2",
                    "--chaos-dir", str(tmp_path / "chaos")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=600)
        assert killed.returncode == CHAOS_EXIT_CODE, killed.stderr
        resumed = subprocess.run(
            base + ["--out", str(out)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=600)
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(out.read_text())
        assert payload["digest"] == reference_digest
        assert payload["progress"]["cached"] >= 1
