"""Validate Chrome trace artifacts against the checked-in schema.

By default the tests validate a trace generated in-process from the
exporter. CI's trace-smoke job points ``REPRO_TRACE_FILE`` at a trace
written by ``python -m repro run --trace-out`` so the full CLI path is
validated too.

The container has no ``jsonschema`` package, so ``validate`` is a
minimal validator covering exactly the keywords the schema uses:
``type``, ``required``, ``properties``, ``items``, ``enum``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.obs.events import INFO, TraceEvent
from repro.obs.export import chrome_trace

SCHEMA_PATH = Path(__file__).parent / "data" / "chrome_trace_event.schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def validate(instance, schema, path="$"):
    """Return a list of error strings (empty when valid)."""
    errors = []
    expected = schema.get("type")
    if expected is not None:
        if expected == "integer":
            ok = isinstance(instance, int) and not isinstance(instance, bool)
        elif expected == "number":
            ok = (isinstance(instance, (int, float))
                  and not isinstance(instance, bool))
        else:
            ok = isinstance(instance, _TYPES[expected])
        if not ok:
            return [f"{path}: expected {expected}, "
                    f"got {type(instance).__name__}"]
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(validate(instance[name], subschema,
                                       f"{path}.{name}"))
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(validate(item, schema["items"],
                                   f"{path}[{index}]"))
    return errors


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


@pytest.fixture(scope="module")
def trace_doc():
    override = os.environ.get("REPRO_TRACE_FILE")
    if override:
        return json.loads(Path(override).read_text())
    events = [
        TraceEvent(0.001, "queue", "enqueue", "down", INFO,
                   {"pkt_id": 1, "size": 1200, "depth_pkts": 1,
                    "depth_bytes": 1200}),
        TraceEvent(0.002, "link", "txop", "wifi", INFO,
                   {"pkts": 1, "bytes": 1200, "airtime_s": 0.0002,
                    "rate_bps": 5e7}),
        TraceEvent(0.003, "link", "deliver", "wifi", INFO,
                   {"pkt_id": 1, "size": 1200}),
        TraceEvent(0.004, "cca", "cwnd", "cca/1->2", INFO, {"value": 10}),
    ]
    return chrome_trace(events)


class TestTraceAgainstSchema:
    def test_document_validates(self, trace_doc, schema):
        assert validate(trace_doc, schema) == []

    def test_has_process_and_thread_metadata(self, trace_doc):
        metas = [e for e in trace_doc["traceEvents"] if e["ph"] == "M"]
        assert metas[0]["name"] == "process_name"
        assert any(e["name"] == "thread_name" for e in metas[1:])

    def test_timestamps_nonnegative(self, trace_doc):
        assert all(e["ts"] >= 0 for e in trace_doc["traceEvents"])

    def test_complete_events_have_durations(self, trace_doc):
        for event in trace_doc["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0


class TestMiniValidator:
    """The validator must actually reject malformed documents."""

    def test_missing_required(self, schema):
        assert validate({"traceEvents": []}, schema)

    def test_wrong_type(self, schema):
        doc = {"traceEvents": {}, "displayTimeUnit": "ms"}
        assert any("expected array" in e for e in validate(doc, schema))

    def test_bad_enum(self, schema):
        doc = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1,
                                "tid": 1, "ts": 0}],
               "displayTimeUnit": "ms"}
        assert any("'Z'" in e for e in validate(doc, schema))

    def test_bad_item_field_type(self, schema):
        doc = {"traceEvents": [{"name": "x", "ph": "i", "pid": 1,
                                "tid": "one", "ts": 0}],
               "displayTimeUnit": "ms"}
        assert any("tid" in e for e in validate(doc, schema))

    def test_bool_is_not_integer(self):
        assert validate(True, {"type": "integer"})
        assert validate(True, {"type": "number"})
        assert not validate(3, {"type": "number"})
