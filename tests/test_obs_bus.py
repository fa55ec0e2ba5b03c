"""Tests for the trace bus and the flight recorder."""

import pytest

from repro.net.queue import DropTailQueue
from repro.obs.bus import TraceBus
from repro.obs.events import DEBUG, ERROR, INFO, WARN, TraceEvent, severity_name
from repro.obs.flight import FlightRecorder


class TestTraceBus:
    def test_emit_builds_event_with_sim_time(self, sim):
        bus = TraceBus(sim)
        seen = []
        bus.subscribe(seen.append)
        sim.call_at(1.5, lambda: bus.emit("queue", "enqueue", "q", pkt_id=7))
        sim.run()
        assert len(seen) == 1
        event = seen[0]
        assert event.time == 1.5
        assert (event.category, event.name, event.track) == (
            "queue", "enqueue", "q")
        assert event.args == {"pkt_id": 7}

    def test_category_filter_suppresses_events(self, sim):
        bus = TraceBus(sim, categories={"queue"})
        seen = []
        bus.subscribe(seen.append)
        bus.emit("link", "rate", "wifi", value=1e6)
        bus.emit("queue", "drop", "q", pkt_id=1)
        assert [e.category for e in seen] == ["queue"]
        assert bus.wants("queue") and not bus.wants("link")

    def test_no_filter_passes_everything(self, sim):
        bus = TraceBus(sim)
        assert all(bus.wants(c) for c in ("sim", "queue", "link", "ap",
                                          "cca"))

    def test_unsubscribe(self, sim):
        bus = TraceBus(sim)
        seen = []
        callback = bus.subscribe(seen.append)
        bus.unsubscribe(callback)
        bus.emit("sim", "error", "sim", message="x")
        assert seen == []

    def test_queue_helper_payloads(self, sim, packet_factory):
        bus = TraceBus(sim)
        seen = []
        bus.subscribe(seen.append)
        queue = DropTailQueue(capacity_bytes=10_000, name="down")
        queue.trace = bus
        packet = packet_factory(size=1200, seq=1)
        queue.enqueue(packet, 0.0)
        queue.dequeue(0.5)
        enq, deq = seen
        assert enq.name == "enqueue" and enq.args["depth_pkts"] == 1
        assert deq.name == "dequeue" and deq.args["depth_pkts"] == 0
        assert enq.args["depth_bytes"] == 1200
        assert enq.track == "down"

    def test_drop_event_is_warn_severity(self, sim, packet_factory):
        bus = TraceBus(sim)
        seen = []
        bus.subscribe(seen.append)
        queue = DropTailQueue(capacity_bytes=1000, name="tiny")
        queue.trace = bus
        assert not queue.enqueue(packet_factory(size=1500), 0.0)
        (drop,) = seen
        assert drop.name == "drop"
        assert drop.severity == WARN
        assert drop.args["reason"] == "tail-overflow"


class TestZeroCostDisabled:
    def test_queue_emits_nothing_without_bus(self, packet_factory):
        queue = DropTailQueue(capacity_bytes=10_000)
        assert queue.trace is None
        queue.enqueue(packet_factory(), 0.0)
        assert queue.dequeue(0.1) is not None  # no AttributeError

    def test_overhead_guard_twins_differ_by_probe_sites_only(self):
        """The <2% guard's probe-free side is the live source minus its
        probe sites: nothing left that reads ``trace``, same state
        trajectory, live methods back afterwards."""
        from repro.experiments.drivers import obs_overhead
        live = {cls: dict(vars(cls)) for cls in obs_overhead.PROBED_CLASSES}
        trajectory = obs_overhead._drive(300)[1]
        with obs_overhead.probes_stripped() as sites:
            assert sites >= 5
            swapped = [(cls, name) for cls, methods in live.items()
                       for name, method in methods.items()
                       if vars(cls)[name] is not method]
            assert (DropTailQueue, "enqueue") in swapped
            for cls, name in swapped:
                assert "trace" not in vars(cls)[name].__code__.co_names
            assert obs_overhead._drive(300)[1] == trajectory
        assert all(dict(vars(cls)) == methods
                   for cls, methods in live.items())


class TestFlightRecorder:
    @staticmethod
    def _event(i, severity=INFO):
        return TraceEvent(float(i), "queue", "enqueue", "q", severity,
                          {"pkt_id": i})

    def test_ring_keeps_only_last_capacity(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder(self._event(i))
        assert len(recorder) == 3
        assert [e.args["pkt_id"] for e in recorder.events()] == [7, 8, 9]
        assert recorder.seen == 10

    def test_severity_threshold(self):
        recorder = FlightRecorder(capacity=10, min_severity=WARN)
        recorder(self._event(1, severity=DEBUG))
        recorder(self._event(2, severity=WARN))
        recorder(self._event(3, severity=ERROR))
        assert [e.severity for e in recorder.events()] == [WARN, ERROR]

    def test_dump_lines_header_and_tail(self):
        recorder = FlightRecorder(capacity=5)
        for i in range(8):
            recorder(self._event(i))
        lines = recorder.dump_lines(last=2)
        assert lines[0] == ("flight recorder: last 2 of 8 events "
                            "(3 older events evicted)")
        assert len(lines) == 3
        assert "queue.enqueue" in lines[1]

    def test_clear(self):
        recorder = FlightRecorder(capacity=5)
        recorder(self._event(1))
        recorder.clear()
        assert len(recorder) == 0 and recorder.seen == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSeverityNames:
    def test_known_and_unknown(self):
        assert severity_name(INFO) == "INFO"
        assert severity_name(99) == "99"
