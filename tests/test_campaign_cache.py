"""Tests for the content-addressed campaign result cache."""

import json

from repro.campaign.cache import (CACHE_DIR_ENV, ResultCache,
                                  default_cache_root)
from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.campaign.summary import FlowSummary, ScenarioSummary


def _spec(seed: int = 1) -> ScenarioSpec:
    return ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                        duration=1.0, seed=seed)


def _summary(spec: ScenarioSpec) -> ScenarioSummary:
    flow = FlowSummary(rtt_times=[1.0, 2.0], rtt_values=[0.05, 0.25],
                       frame_times=[1.5], frame_delays=[0.1],
                       goodput_bps=1e6, mean_bitrate_bps=1.2e6)
    return ScenarioSummary(spec=spec, flows=[flow], events_processed=42,
                           ap_packets=7, predicted=[0.01], actual=[0.02])


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _spec()
        assert cache.get(spec) is None
        cache.put(spec, _summary(spec))
        hit = cache.get(spec)
        assert hit is not None
        assert hit.as_dict() == _summary(spec).as_dict()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_keys_are_spec_specific(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(_spec(seed=1), _summary(_spec(seed=1)))
        assert cache.get(_spec(seed=2)) is None

    def test_corrupted_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _spec()
        path = cache.put(spec, _summary(spec))
        path.write_text("{ not json")
        # Corruption is a miss + quarantine, never a raise.
        assert cache.get(spec) is None
        assert cache.stats.quarantined == 1
        assert not path.exists()
        moved = cache.quarantine_root / f"{path.name}.corrupt"
        assert moved.exists()
        assert moved.read_text() == "{ not json"
        # The cell can be re-cached afterwards.
        cache.put(spec, _summary(spec))
        assert cache.get(spec) is not None

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _spec()
        path = cache.put(spec, _summary(spec))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])  # torn foreign write
        assert cache.get(spec) is None
        assert cache.stats.quarantined == 1
        assert (cache.quarantine_root / f"{path.name}.corrupt").exists()

    def test_checksum_detects_body_tamper(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _spec()
        path = cache.put(spec, _summary(spec))
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip one byte deep in the body
        path.write_bytes(bytes(blob))
        assert cache.get(spec) is None
        assert cache.stats.quarantined == 1

    def test_code_version_mismatch_is_a_silent_evict(self, tmp_path):
        from repro.campaign.cache import _entry_blob
        cache = ResultCache(root=tmp_path)
        spec = _spec()
        path = cache.put(spec, _summary(spec))
        _header, body_blob = path.read_bytes().split(b"\n", 1)
        body = json.loads(body_blob)
        body["code"] = "0" * 16  # entry written by different code
        path.write_bytes(_entry_blob(json.dumps(body).encode()))
        assert cache.get(spec) is None
        # Stale, not corrupt: evicted in place, not quarantined.
        assert cache.stats.evictions == 1
        assert cache.stats.quarantined == 0
        assert not path.exists()

    def test_entry_bytes_are_pinned(self, tmp_path):
        """A streamed entry is byte for byte the one built whole: on a
        real summary, and on one with non-ASCII and nested data."""
        from repro.campaign.cache import (_BLOCK, SPEC_SCHEMA_VERSION,
                                          _entry_blob, code_fingerprint)
        from repro.topology.builder import TopologyBuilder
        real = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=3.0,
                                                       seed=3),
                            duration=3.0, seed=1, warmup=1.0,
                            ap_mode="zhuge", protocol="rtp", cca="gcc")
        streamed = TopologyBuilder(real).run()
        assert len(streamed.flows[0].rtt_values) > _BLOCK  # several blocks
        odd = _spec(seed=2)
        nested = _summary(odd)
        nested.control_transitions = [
            (1.5, "ap-é", "dégradé", {"why": ["ü", [1, {"日本": None}]]})]
        nested.fault_log = [(0.5, "blackout", "début")]
        cache = ResultCache(root=tmp_path)
        for spec, summary in ((real, streamed), (odd, nested)):
            body = {"schema": SPEC_SCHEMA_VERSION,
                    "key": spec.content_hash(),
                    "code": code_fingerprint(),
                    "spec": spec.as_dict(),
                    "summary": summary.as_dict()}
            path = cache.put(spec, summary)
            assert path.read_bytes() == _entry_blob(json.dumps(body).encode())
            assert cache.get(spec).as_dict() == json.loads(
                json.dumps(summary.as_dict()))
        report = cache.verify()
        assert (report.scanned, report.valid) == (2, 2)

    def test_verify_reports_and_quarantines(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        specs = [_spec(seed=seed) for seed in range(1, 4)]
        paths = [cache.put(spec, _summary(spec)) for spec in specs]
        paths[1].write_text("damaged beyond recognition")
        report = cache.verify()
        assert (report.scanned, report.valid, report.corrupt) == (3, 2, 1)
        assert not report.clean
        assert report.corrupt_entries == [paths[1].name]
        assert report.quarantined_total == 1
        # Second pass: the store is clean again.
        report = cache.verify()
        assert report.clean
        assert (report.scanned, report.valid) == (2, 2)
        assert report.quarantined_total == 1

    def test_quarantine_is_never_served_or_pruned(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _spec()
        path = cache.put(spec, _summary(spec))
        path.write_text("oops")
        assert cache.get(spec) is None
        moved = cache.quarantine_root / f"{path.name}.corrupt"
        assert moved.exists()
        stats = cache.prune(max_bytes=0)
        assert stats.pruned == 0  # store already empty; quarantine kept
        assert moved.exists()

    def test_default_root_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_root() == tmp_path / "override"
        monkeypatch.delenv(CACHE_DIR_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_root() == tmp_path / "xdg" / "repro-campaign"


class TestCachePrune:
    def _fill(self, tmp_path, count):
        cache = ResultCache(root=tmp_path)
        specs = [_spec(seed=seed) for seed in range(1, count + 1)]
        paths = [cache.put(spec, _summary(spec)) for spec in specs]
        return cache, specs, paths

    def test_prune_keeps_newest_within_budget(self, tmp_path):
        import os
        cache, specs, paths = self._fill(tmp_path, 4)
        # Distinct mtimes: paths[0] oldest, paths[3] newest.
        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        size = paths[0].stat().st_size
        stats = cache.prune(max_bytes=2 * size + size // 2)
        assert (stats.kept, stats.pruned) == (2, 2)
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        assert stats.pruned_bytes > 0

    def test_prune_zero_budget_empties_store(self, tmp_path):
        cache, _specs, paths = self._fill(tmp_path, 3)
        stats = cache.prune(max_bytes=0)
        assert stats.kept == 0
        assert stats.pruned == 3
        assert not any(path.exists() for path in paths)

    def test_get_refreshes_recency(self, tmp_path):
        import os
        cache, specs, paths = self._fill(tmp_path, 3)
        stale = 1_000_000
        for path in paths:
            os.utime(path, (stale, stale))
        # A hit on the oldest entry must move it to the front of the
        # LRU order, so it survives a prune that drops the others.
        assert cache.get(specs[0]) is not None
        assert paths[0].stat().st_mtime > stale
        size = paths[0].stat().st_size
        stats = cache.prune(max_bytes=size + size // 2)
        assert stats.kept == 1
        assert paths[0].exists()
        assert not paths[1].exists() and not paths[2].exists()

    def test_prune_empty_store(self, tmp_path):
        cache = ResultCache(root=tmp_path / "nonexistent")
        stats = cache.prune(max_bytes=1_000_000)
        assert (stats.kept, stats.pruned) == (0, 0)
