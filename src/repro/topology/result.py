"""What a finished run hands back: :class:`ScenarioResult`.

:func:`collect` reads a :class:`~repro.topology.builder.TopologyBuilder`
whose simulation has run to the spec's duration, stops its periodic
components, and condenses the recorders, prediction joins and fault /
watchdog / control logs into one :class:`ScenarioResult`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.recorder import FrameRecorder, RttRecorder, column
from repro.obs.session import TraceSession


@dataclass
class FlowResult:
    """Per-RTC-flow recorders.

    ``rtt`` is the *network-layer* RTT of data packets (downlink delivery
    time minus send time, plus the stable return-path latency) measured
    at the client side of the wireless hop — the paper's §7.2 metric,
    independent of any feedback manipulation. ``cca_rtt`` is what the
    sender's CCA perceives through its feedback stream (with Zhuge these
    differ by design: the perceived signal is shifted earlier).
    """

    rtt: RttRecorder
    frames: FrameRecorder
    cca_rtt: RttRecorder = field(default_factory=RttRecorder)
    goodput_bps: float = 0.0
    mean_bitrate_bps: float = 0.0


@dataclass
class ScenarioResult:
    """Everything the figures read after a run."""

    config: "ScenarioSpec"  # noqa: F821 - the spec that ran
    flows: list[FlowResult]
    #: Joined (predicted, actual) delays of every Zhuge AP in node order
    #: (each in delivery order); empty unless ``record_predictions``.
    predicted: array = field(default_factory=column)
    actual: array = field(default_factory=column)
    events_processed: int = 0
    #: Packets delivered by the link layers — identical in both event
    #: models (``events_processed`` is model-dependent telemetry).
    packets_processed: int = 0
    ap_packets: int = 0
    #: Live tracing state when ``config.trace_config`` was set. Holds
    #: the collected events and the prediction auditor; never serialized
    #: into campaign summaries.
    trace_session: Optional[TraceSession] = None
    #: (time, kind, phase) of every executed fault phase, in order.
    fault_log: list = field(default_factory=list)
    #: (time, state, reason) of every AP watchdog transition, in order.
    watchdog_transitions: list = field(default_factory=list)
    #: (time, ap, state, reason) of every controller transition, merged
    #: across APs in time order.
    control_transitions: list = field(default_factory=list)
    #: (time, client, old_ap, new_ap) of every completed steering move.
    steering_moves: list = field(default_factory=list)

    @property
    def rtt(self) -> RttRecorder:
        return self.flows[0].rtt

    @property
    def frames(self) -> FrameRecorder:
        return self.flows[0].frames

    def measured_duration(self) -> float:
        return self.config.duration - self.config.warmup


def collect(builder) -> ScenarioResult:
    """Stop ``builder``'s run and condense it into a result."""
    spec = builder.spec
    network_rtt = builder.forwarding.network_rtt
    flows = []
    for fr in builder.forwarding.rtc:
        rtt = network_rtt[fr.flow].since(spec.warmup)
        cca_rtt = fr.sender.rtt_recorder.since(spec.warmup)
        frames = fr.app.frame_recorder.since(spec.warmup)
        result = FlowResult(
            rtt=rtt, frames=frames, cca_rtt=cca_rtt,
            goodput_bps=_flow_goodput(fr.protocol, fr.receiver, spec))
        result.mean_bitrate_bps = fr.sender.rate_recorder.mean_rate(
            start=spec.warmup)
        flows.append(result)

    ap_packets = 0
    predicted, actual = column(), column()
    for ap_rt in builder.aps.values():
        ap_packets += ap_rt.ap.packets_processed
        if ap_rt.zhuge is not None:
            ap_rt.zhuge.stop()
            join = ap_rt.zhuge.predictions
            if join is not None:
                predicted.extend(join.predicted)
                actual.extend(join.actual)
    for fr in builder.forwarding.rtc:
        fr.app.stop()

    session = builder.trace_session
    if session is not None:
        session.audit(zip(predicted, actual))
        session.export()
    if not spec.record_predictions:
        predicted, actual = column(), column()

    fault_log = []
    if builder.fault_injector is not None:
        fault_log = list(builder.fault_injector.log)
    watchdog_transitions = []
    zhuge = builder.zhuge
    if zhuge is not None and zhuge.watchdog is not None:
        watchdog_transitions = list(zhuge.watchdog.transitions)

    control_transitions = []
    for name, controller in builder.controllers.items():
        controller.stop()
        control_transitions.extend(
            (t, name, state, reason)
            for t, state, reason in controller.transitions)
    control_transitions.sort(key=lambda entry: (entry[0], entry[1]))
    steering_moves = []
    if builder.steering is not None:
        builder.steering.stop()
        steering_moves = list(builder.steering.moves)

    return ScenarioResult(config=spec, flows=flows,
                          predicted=predicted, actual=actual,
                          events_processed=builder.sim.events_processed,
                          packets_processed=builder.sim.packets_processed,
                          ap_packets=ap_packets,
                          trace_session=session,
                          fault_log=fault_log,
                          watchdog_transitions=watchdog_transitions,
                          control_transitions=control_transitions,
                          steering_moves=steering_moves)


#: Payload bytes per received packet, by protocol.
_GOODPUT_PAYLOAD_BYTES = {"rtp": 1200, "quic": 1200, "tcp": 1448}


def _flow_goodput(protocol: str, receiver, spec) -> float:
    """Approximate goodput from the receiver's packet count.

    All packets are assumed payload-sized; the warmup share is removed
    proportionally.
    """
    span = max(spec.duration - spec.warmup, 1e-9)
    fraction = span / spec.duration
    payload = _GOODPUT_PAYLOAD_BYTES[protocol]
    return receiver.packets_received * fraction * payload * 8 / span
