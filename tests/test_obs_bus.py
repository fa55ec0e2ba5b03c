"""Tests for the trace bus, its event list and the tail dump."""

import io

from repro.net.queue import DropTailQueue
from repro.obs.bus import TraceBus
from repro.obs.events import INFO, WARN, severity_name
from repro.obs.session import TraceConfig, TraceSession


class TestTraceBus:
    def test_emit_builds_event_with_sim_time(self, sim):
        bus = TraceBus(sim)
        seen = bus.events
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
        seen = bus.events
        bus.emit("link", "rate", "wifi", value=1e6)
        bus.emit("queue", "drop", "q", pkt_id=1)
        assert [e.category for e in seen] == ["queue"]
        assert bus.wants("queue") and not bus.wants("link")

    def test_no_filter_passes_everything(self, sim):
        bus = TraceBus(sim)
        assert all(bus.wants(c) for c in ("queue", "link", "ap", "cca",
                                          "fault", "control"))

    def test_queue_helper_payloads(self, sim, packet_factory):
        bus = TraceBus(sim)
        seen = bus.events
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
        seen = bus.events
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
        from tests import test_cost_bounds as obs_overhead
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
    """The flight recorder is the bus's event list: a dying run dumps
    its tail."""

    def test_dump_lines_header_and_tail(self, sim):
        session = TraceSession(sim, TraceConfig(events=("queue",)))
        for i in range(8):
            session.bus.emit("queue", "enqueue", "q", pkt_id=i)
        session.bus.emit("link", "rate", "wifi", value=1e6)  # filtered out
        stream = io.StringIO()
        lines = session.dump_on_error(RuntimeError("boom"), stream=stream,
                                      last=2).splitlines()
        assert lines[0] == "trace tail: last 2 of 8 events"
        assert len(lines) == 3
        assert "queue.enqueue" in lines[1] and lines[2].endswith("pkt_id=7")
        assert stream.getvalue().splitlines()[1:] == lines


class TestSeverityNames:
    def test_known_and_unknown(self):
        assert severity_name(INFO) == "INFO"
        assert severity_name(99) == "99"
