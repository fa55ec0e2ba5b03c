"""Picklable scenario summaries — the one result type.

:meth:`TopologyBuilder.run() <repro.topology.builder.TopologyBuilder.run>`
returns a :class:`ScenarioSummary`, and campaign workers hand the same
object back. It keeps exactly what every figure driver and the CLI
read: the warmup-filtered per-flow sample series (network RTT, frame
delays), goodput/bitrate scalars, and the prediction columns when
recorded. It round-trips through JSON bit-exactly, so a summary
recomputed in a subprocess or replayed from the cache is
indistinguishable from one computed in-process. A live trace session
never travels with it; it stays on the builder.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field

from repro.campaign.spec import ScenarioSpec
from repro.metrics.recorder import FrameRecorder, RttRecorder, column
from repro.metrics.stats import quantiles


#: FlowSummary's per-sample series, in payload order.
_SERIES = ("rtt_times", "rtt_values", "frame_times", "frame_delays")


def _pack(summary, names) -> None:
    """Coerce the float sequences ``names`` of ``summary`` to columns."""
    for name in names:
        series = getattr(summary, name)
        if not (isinstance(series, array) and series.typecode == "d"):
            setattr(summary, name, array("d", series))


@dataclass
class FlowSummary:
    """One RTC flow's summary series (all post-warmup).

    ``rtt_*`` is the *network-layer* RTT of data packets (downlink
    delivery time minus send time, plus the stable return-path latency)
    measured at the client side of the wireless hop — the paper's §7.2
    metric, independent of any feedback manipulation.

    Every series is a packed ``array('d')`` column; any float sequence
    passed in is coerced, and lists appear only at the JSON edge.
    """

    rtt_times: array = field(default_factory=column)
    rtt_values: array = field(default_factory=column)
    frame_times: array = field(default_factory=column)
    frame_delays: array = field(default_factory=column)
    goodput_bps: float = 0.0
    mean_bitrate_bps: float = 0.0

    def __post_init__(self) -> None:
        _pack(self, _SERIES)

    @property
    def rtt(self) -> RttRecorder:
        """The network-RTT series as a recorder over this summary's own
        columns (no copy: read it, do not record into it)."""
        return RttRecorder(self.rtt_times, self.rtt_values)

    @property
    def frames(self) -> FrameRecorder:
        return FrameRecorder(self.frame_times, self.frame_delays)

    def as_dict(self) -> dict:
        payload = {name: getattr(self, name).tolist() for name in _SERIES}
        payload["goodput_bps"] = self.goodput_bps
        payload["mean_bitrate_bps"] = self.mean_bitrate_bps
        return payload


@dataclass
class ScenarioSummary:
    """Everything the figures need from one campaign cell."""

    spec: ScenarioSpec
    flows: list[FlowSummary] = field(default_factory=list)
    events_processed: int = 0
    #: Packets delivered by the link layers — part of the digest
    #: contract (identical across event models), unlike
    #: ``events_processed`` which depends on how dispatches are fused.
    packets_processed: int = 0
    ap_packets: int = 0
    #: Joined (predicted, actual) delays, equal length; ``prediction_pairs``
    #: at the JSON edge. Empty unless the spec records predictions.
    predicted: array = field(default_factory=column)
    actual: array = field(default_factory=column)
    #: (time, kind, phase) executed fault phases; empty without faults.
    fault_log: list[tuple] = field(default_factory=list)
    #: (time, state, reason) AP watchdog transitions; empty without one.
    watchdog_transitions: list[tuple] = field(default_factory=list)
    #: (time, ap, state, reason) controller transitions; empty without
    #: a control plane.
    control_transitions: list[tuple] = field(default_factory=list)
    #: (time, client, old_ap, new_ap) completed steering moves.
    steering_moves: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        _pack(self, ("predicted", "actual"))
        if len(self.predicted) != len(self.actual):
            raise ValueError("predicted and actual differ in length")

    @classmethod
    def from_result(cls, result: "ScenarioSummary",
                    spec: ScenarioSpec) -> "ScenarioSummary":
        """``result`` itself: ``TopologyBuilder.run()`` already returns
        the summary. Pinned by ``benchmarks/ledger/workloads.py``;
        nothing else calls it."""
        return result

    @property
    def rtt(self) -> RttRecorder:
        return self.flows[0].rtt

    @property
    def frames(self) -> FrameRecorder:
        return self.flows[0].frames

    def measured_duration(self) -> float:
        return self.spec.duration - self.spec.warmup

    def digest_payload(self) -> dict:
        """The metric-level equivalence contract (digest v2, PR 10).

        Everything observable about the simulated trajectory — per-packet
        timestamps, delays, drops, release times, counts — is pinned;
        ``events_processed`` is excluded because it counts engine
        dispatches, which the macro-event datapath legitimately fuses.
        Two runs that differ only in how events are dispatched (e.g.
        the per-packet reference links of ``tests/reference_links.py``)
        must produce identical payloads (``packets_processed`` stays:
        every link counts deliveries the same way).
        """
        payload = self.as_dict()
        del payload["events_processed"]
        return payload

    def digest(self) -> str:
        """Canonical sha256 of :meth:`digest_payload`."""
        blob = json.dumps(self.digest_payload(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_dict(self) -> dict:
        payload = {"spec": self.spec.as_dict(),
                   "flows": [f.as_dict() for f in self.flows],
                   "events_processed": self.events_processed,
                   "packets_processed": self.packets_processed,
                   "ap_packets": self.ap_packets,
                   "prediction_pairs": [
                       [p, a] for p, a in zip(self.predicted, self.actual)]}
        # Emitted only when non-empty: un-faulted summaries stay
        # byte-identical to pre-fault-layer ones.
        if self.fault_log:
            payload["fault_log"] = [list(entry) for entry in self.fault_log]
        if self.watchdog_transitions:
            payload["watchdog_transitions"] = [
                list(entry) for entry in self.watchdog_transitions]
        if self.control_transitions:
            payload["control_transitions"] = [
                list(entry) for entry in self.control_transitions]
        if self.steering_moves:
            payload["steering_moves"] = [
                list(entry) for entry in self.steering_moves]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSummary":
        pairs = payload["prediction_pairs"]  # a malformed pair cannot unpack
        return cls(spec=ScenarioSpec.from_dict(payload["spec"]),
                   flows=[FlowSummary(**f) for f in payload["flows"]],
                   events_processed=payload["events_processed"],
                   packets_processed=payload.get("packets_processed", 0),
                   ap_packets=payload["ap_packets"],
                   predicted=[p for p, _ in pairs],
                   actual=[a for _, a in pairs],
                   fault_log=[tuple(entry) for entry
                              in payload.get("fault_log", [])],
                   watchdog_transitions=[
                       tuple(entry) for entry
                       in payload.get("watchdog_transitions", [])],
                   control_transitions=[
                       tuple(entry) for entry
                       in payload.get("control_transitions", [])],
                   steering_moves=[
                       tuple(entry) for entry
                       in payload.get("steering_moves", [])])


def summary_lines(label: str, summary: ScenarioSummary) -> list[str]:
    """The CLI's standard per-run report (shared by run/compare/campaign)."""
    flow = summary.flows[0]
    rtt = flow.rtt
    frames = flow.frames
    lines = [f"--- {label} ---"]
    if rtt.count:
        p50, p99 = quantiles(rtt.rtts, (50, 99))
        lines.append(f"  P50 / P99 RTT:      {p50 * 1000:6.0f} ms / "
                     f"{p99 * 1000:.0f} ms")
    lines.append(f"  RTT > 200 ms:       {rtt.tail_ratio() * 100:6.2f}%")
    lines.append(f"  frame delay >400ms: "
                 f"{frames.delayed_ratio() * 100:6.2f}%")
    lines.append(f"  frames decoded:     {frames.count:6d}")
    lines.append(f"  goodput:            "
                 f"{flow.goodput_bps / 1e6:6.2f} Mbps")
    return lines
