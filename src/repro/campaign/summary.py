"""Picklable scenario summaries — the unit campaign workers return.

A full :class:`~repro.topology.builder.ScenarioResult` holds the live
recorders and trace session and is meant to stay inside the worker
process. :class:`ScenarioSummary` keeps
exactly what every figure driver and the CLI read: the warmup-filtered
per-flow sample series (network RTT, CCA-perceived RTT, frame delays),
goodput/bitrate scalars, and the prediction pairs when recorded. It
round-trips through JSON bit-exactly, so a summary recomputed in a
subprocess or replayed from the cache is indistinguishable from one
computed in-process.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.campaign.spec import ScenarioSpec
from repro.metrics.recorder import FrameRecorder, RttRecorder, column
from repro.metrics.stats import cdf_points, percentile, tail_fraction


#: FlowSummary's per-sample series, in payload order.
_SERIES = ("rtt_times", "rtt_values", "cca_rtt_times", "cca_rtt_values",
           "frame_times", "frame_delays")


@dataclass
class FlowSummary:
    """One RTC flow's summary series (all post-warmup).

    Every series is a packed ``array('d')`` column; any float sequence
    passed in is coerced, and lists appear only at the JSON edge.
    """

    rtt_times: array = field(default_factory=column)
    rtt_values: array = field(default_factory=column)
    cca_rtt_times: array = field(default_factory=column)
    cca_rtt_values: array = field(default_factory=column)
    frame_times: array = field(default_factory=column)
    frame_delays: array = field(default_factory=column)
    goodput_bps: float = 0.0
    mean_bitrate_bps: float = 0.0

    def __post_init__(self) -> None:
        for name in _SERIES:
            series = getattr(self, name)
            if not (isinstance(series, array) and series.typecode == "d"):
                setattr(self, name, array("d", series))

    @classmethod
    def from_flow(cls, flow) -> "FlowSummary":
        """Build from a :class:`~repro.topology.builder.FlowResult`
        (its recorders are fresh post-warmup slices: no copy)."""
        return cls(rtt_times=flow.rtt.times,
                   rtt_values=flow.rtt.rtts,
                   cca_rtt_times=flow.cca_rtt.times,
                   cca_rtt_values=flow.cca_rtt.rtts,
                   frame_times=flow.frames.frame_times,
                   frame_delays=flow.frames.frame_delays,
                   goodput_bps=flow.goodput_bps,
                   mean_bitrate_bps=flow.mean_bitrate_bps)

    @property
    def rtt(self) -> RttRecorder:
        """The network-RTT series as a recorder (fresh copy per call)."""
        return RttRecorder(self.rtt_times[:], self.rtt_values[:])

    @property
    def cca_rtt(self) -> RttRecorder:
        return RttRecorder(self.cca_rtt_times[:], self.cca_rtt_values[:])

    @property
    def frames(self) -> FrameRecorder:
        return FrameRecorder(self.frame_times[:], self.frame_delays[:])

    def as_dict(self) -> dict:
        payload = {name: getattr(self, name).tolist() for name in _SERIES}
        payload["goodput_bps"] = self.goodput_bps
        payload["mean_bitrate_bps"] = self.mean_bitrate_bps
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FlowSummary":
        return cls(**payload)


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
    prediction_pairs: list[tuple[float, float]] = field(default_factory=list)
    #: (time, kind, phase) executed fault phases; empty without faults.
    fault_log: list[tuple] = field(default_factory=list)
    #: (time, state, reason) AP watchdog transitions; empty without one.
    watchdog_transitions: list[tuple] = field(default_factory=list)
    #: (time, ap, state, reason) controller transitions; empty without
    #: a control plane.
    control_transitions: list[tuple] = field(default_factory=list)
    #: (time, client, old_ap, new_ap) completed steering moves.
    steering_moves: list[tuple] = field(default_factory=list)

    @classmethod
    def from_result(cls, result, spec: ScenarioSpec) -> "ScenarioSummary":
        """Condense a worker-local :class:`ScenarioResult`."""
        return cls(spec=spec,
                   flows=[FlowSummary.from_flow(f) for f in result.flows],
                   events_processed=result.events_processed,
                   packets_processed=getattr(result, "packets_processed", 0),
                   ap_packets=result.ap_packets,
                   prediction_pairs=[tuple(p)
                                     for p in result.prediction_pairs],
                   fault_log=[tuple(entry) for entry in result.fault_log],
                   watchdog_transitions=[tuple(entry) for entry
                                         in result.watchdog_transitions],
                   control_transitions=[tuple(entry) for entry
                                        in result.control_transitions],
                   steering_moves=[tuple(entry) for entry
                                   in result.steering_moves])

    # Mirror the ScenarioResult conveniences so migrated drivers read
    # summaries exactly as they read results.
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
                   "prediction_pairs": [list(p)
                                        for p in self.prediction_pairs]}
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
        return cls(spec=ScenarioSpec.from_dict(payload["spec"]),
                   flows=[FlowSummary.from_dict(f)
                          for f in payload["flows"]],
                   events_processed=payload["events_processed"],
                   packets_processed=payload.get("packets_processed", 0),
                   ap_packets=payload["ap_packets"],
                   prediction_pairs=[tuple(p) for p in
                                     payload["prediction_pairs"]],
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


@dataclass
class MergedSummary:
    """Exact pooled view over several summaries' sample series.

    ``rtt_samples``/``frame_samples`` hold the *value-sorted* union of
    every flow's post-warmup samples, so any rank statistic computed
    here is the statistic of the pooled population — identical to
    concatenating the raw series and sorting, no matter how the
    population was split across summaries (per seed, per shard, per
    cell). Scalar aggregates (goodput, bitrate, event counts) are
    plain sums in input order.
    """

    rtt_samples: list[float] = field(default_factory=list)
    frame_samples: list[float] = field(default_factory=list)
    flows: int = 0
    events_processed: int = 0
    packets_processed: int = 0
    ap_packets: int = 0
    goodput_bps_total: float = 0.0
    mean_bitrate_bps_total: float = 0.0

    def rtt_percentile(self, q: float) -> float:
        """Exact pooled RTT percentile (samples are pre-sorted)."""
        return percentile(self.rtt_samples, q)

    def frame_percentile(self, q: float) -> float:
        return percentile(self.frame_samples, q)

    def rtt_tail_ratio(self, threshold: float = 0.200) -> float:
        return tail_fraction(self.rtt_samples, threshold)

    def delayed_frame_ratio(self, threshold: float = 0.400) -> float:
        return tail_fraction(self.frame_samples, threshold)

    def rtt_cdf(self, points: int = 200) -> list[tuple[float, float]]:
        """Pooled delay CDF; closes by rank, so a duplicated maximum
        never leaves a phantom CCDF tail (the PR 6 fix applies to the
        merged population too)."""
        return cdf_points(self.rtt_samples, points)


def merge_summaries(summaries: Sequence[ScenarioSummary]) -> MergedSummary:
    """Exact rank-based combination of several summaries' populations.

    The merged CDF is *the* CDF of the pooled sample multiset — each
    summary's samples are weighted by their count, not averaged curve
    against curve — so fleet percentiles computed from the result are
    exact statistics, not approximations of per-cell approximations.
    Input order does not matter for any rank statistic (the union is
    sorted by value).
    """
    merged = MergedSummary()
    for summary in summaries:
        for flow in summary.flows:
            merged.rtt_samples.extend(flow.rtt_values)
            merged.frame_samples.extend(flow.frame_delays)
            merged.goodput_bps_total += flow.goodput_bps
            merged.mean_bitrate_bps_total += flow.mean_bitrate_bps
            merged.flows += 1
        merged.events_processed += summary.events_processed
        merged.packets_processed += summary.packets_processed
        merged.ap_packets += summary.ap_packets
    merged.rtt_samples.sort()
    merged.frame_samples.sort()
    return merged


def summary_lines(label: str, summary: ScenarioSummary) -> list[str]:
    """The CLI's standard per-run report (shared by run/compare/campaign)."""
    flow = summary.flows[0]
    rtt = flow.rtt
    frames = flow.frames
    lines = [f"--- {label} ---"]
    if rtt.count:
        lines.append(f"  P50 / P99 RTT:      "
                     f"{percentile(rtt.rtts, 50) * 1000:6.0f} ms / "
                     f"{percentile(rtt.rtts, 99) * 1000:.0f} ms")
    lines.append(f"  RTT > 200 ms:       {rtt.tail_ratio() * 100:6.2f}%")
    lines.append(f"  frame delay >400ms: "
                 f"{frames.delayed_ratio() * 100:6.2f}%")
    lines.append(f"  frames decoded:     {frames.count:6d}")
    lines.append(f"  goodput:            "
                 f"{flow.goodput_bps / 1e6:6.2f} Mbps")
    return lines
