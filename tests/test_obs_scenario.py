"""Integration tests: tracing wired through scenarios and campaigns."""

import dataclasses
import io
import json

import pytest

from repro.campaign import ScenarioSpec, TraceSpec, run_campaign
from repro.campaign.summary import ScenarioSummary
from repro.obs.session import TraceConfig, TraceSession
from repro.sim.engine import Simulator
from repro.topology.builder import TopologyBuilder


class TestTraceConfig:
    def test_parse_events(self):
        assert TraceConfig.parse_events("queue, ap,cca") == (
            "queue", "ap", "cca")
        assert TraceConfig.parse_events("") == (
            "sim", "queue", "link", "ap", "cca", "fault", "control")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(events=("queue", "bogus"))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(fmt="xml")

    def test_round_trip(self):
        config = TraceConfig(events=("queue", "ap"), ring_size=128,
                             out="trace.json", fmt="jsonl")
        assert TraceConfig.from_dict(config.as_dict()) == config


class TestTracedScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return TopologyBuilder(ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=12, seed=3),
            protocol="rtp", ap_mode="zhuge", duration=12,
            record_predictions=True,
            trace_config=TraceConfig())).run()

    def test_events_collected(self, result):
        session = result.trace_session
        assert session is not None
        assert len(session.events) > 1000
        categories = {e.category for e in session.events}
        assert {"queue", "link", "ap"} <= categories

    def test_auditor_matches_fortune_teller_pairs(self, result):
        """The acceptance criterion: audited pairs == recorded pairs."""
        live = result.trace_session.auditor.pairs
        recorded = list(zip(result.predicted, result.actual))
        assert len(live) == len(recorded) > 100
        assert live == recorded

    def test_flight_recorder_saw_everything(self, result):
        session = result.trace_session
        assert session.flight.seen == len(session.events)

    def test_export_writes_chrome_trace(self, result, tmp_path):
        path = result.trace_session.export(out=str(tmp_path / "t.json"))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["generator"] == "repro.obs"
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_export_writes_jsonl(self, result, tmp_path):
        path = result.trace_session.export(out=str(tmp_path / "t.jsonl"),
                                           fmt="jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        assert {"t", "cat", "name", "track"} <= set(first)

    def test_untraced_run_has_no_session(self):
        result = TopologyBuilder(ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=6, seed=3),
            duration=6)).run()
        assert result.trace_session is None


class TestDumpOnError:
    def test_attaches_flight_dump_to_exception(self):
        sim = Simulator()
        session = TraceSession(sim, TraceConfig(events=("queue",)))
        session.bus.emit("queue", "drop", "down", pkt_id=1, size=1200,
                         reason="tail-overflow")
        exc = RuntimeError("boom")
        stream = io.StringIO()
        text = session.dump_on_error(exc, stream=stream, last=10)
        assert exc.flight_dump == text
        assert "queue.drop" in text
        assert "RuntimeError: boom" in stream.getvalue()


def _trace_failing_worker(spec):
    if spec.seed == 99:
        exc = ValueError("cell blew up")
        exc.flight_dump = "flight recorder: last 1 of 1 events\n  boom"
        raise exc
    return ScenarioSummary(spec=spec, events_processed=spec.seed)


class TestCampaignTracePlumbing:
    def test_flight_dump_reaches_cell_result(self):
        specs = [ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                              duration=1.0, seed=seed)
                 for seed in (1, 99)]
        result = run_campaign(specs, jobs=0, retries=0, cache=None,
                              worker=_trace_failing_worker)
        ok, failed = result.cells
        assert ok.flight_dump is None
        assert failed.error is not None
        assert failed.flight_dump.startswith("flight recorder:")

    def test_trace_config_changes_content_hash(self):
        base = ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            duration=1.0)
        traced = dataclasses.replace(
            base, trace_config=TraceConfig(out="cell.json"))
        assert base.content_hash() != traced.content_hash()
        assert (traced.content_hash() !=
                dataclasses.replace(
                    base, trace_config=TraceConfig()).content_hash())

    def test_spec_round_trips_trace_config(self):
        spec = ScenarioSpec(trace=TraceSpec.constant(1e6, 1.0),
                            duration=1.0,
                            trace_config=TraceConfig(events=("ap",),
                                                     fmt="jsonl"))
        restored = ScenarioSpec.from_dict(spec.as_dict())
        assert restored == spec
        assert restored.trace_config.events == ("ap",)
