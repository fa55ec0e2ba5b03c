"""What a finished run hands back: its :class:`ScenarioSummary`.

:func:`collect` reads a :class:`~repro.topology.builder.TopologyBuilder`
whose simulation has run to the spec's duration, stops its periodic
components, and condenses the recorders (their series moved, not
copied), prediction joins and fault / watchdog / control / steering
logs into one :class:`~repro.campaign.summary.ScenarioSummary`. A live
trace session is never part of it: it stays on ``builder.trace_session``.
"""

from __future__ import annotations

from repro.metrics.recorder import column


def collect(builder) -> "ScenarioSummary":  # noqa: F821
    """Stop ``builder``'s run and condense it into its summary."""
    # repro.campaign imports the builder: import its summary lazily.
    from repro.campaign.summary import FlowSummary, ScenarioSummary
    spec = builder.spec
    network_rtt = builder.forwarding.network_rtt
    flows = []
    for fr in builder.forwarding.rtc:
        rtt = network_rtt[fr.flow].take(spec.warmup)
        cca_rtt = fr.sender.rtt_recorder.take(spec.warmup)
        frames = fr.app.frame_recorder.take(spec.warmup)
        flows.append(FlowSummary(
            rtt_times=rtt.times, rtt_values=rtt.rtts,
            cca_rtt_times=cca_rtt.times, cca_rtt_values=cca_rtt.rtts,
            frame_times=frames.frame_times,
            frame_delays=frames.frame_delays,
            goodput_bps=_flow_goodput(fr.protocol, fr.receiver, spec),
            mean_bitrate_bps=fr.sender.rate_recorder.mean_rate(
                start=spec.warmup)))

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

    return ScenarioSummary(spec=spec, flows=flows,
                           events_processed=builder.sim.events_processed,
                           packets_processed=builder.sim.packets_processed,
                           ap_packets=ap_packets,
                           predicted=predicted, actual=actual,
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
