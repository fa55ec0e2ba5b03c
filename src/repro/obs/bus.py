"""The simulation-wide event bus.

A :class:`TraceBus` binds to one :class:`~repro.sim.engine.Simulator`
(which provides timestamps) and appends every event that passes its
category filter to its own ``events`` list: the one copy the exporters
write, the tail dump of a dying run formats, and tests read.

Zero-cost-when-disabled contract: instrumented components keep a
``trace`` attribute that is ``None`` until a bus is attached, and every
probe site reads it once::

    tr = self.trace
    if tr is not None:
        tr.queue_enqueue(self, packet)

so a simulation that never enables tracing pays one attribute load and
``is not None`` per probe site (bounded to <2% of a packet's
bytecodes by ``tests/test_cost_bounds.py``). The typed ``queue_*`` / ``link_*``
/ ``ap_*`` / ``cca_*`` helpers keep the payload schema in one place; the
category filter is applied *before* the args dict is built.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.events import INFO, WARN, TraceEvent


class TraceBus:
    """Filters :class:`TraceEvent` instances by category and keeps them."""

    __slots__ = ("sim", "categories", "events")

    def __init__(self, sim, categories: Optional[Iterable[str]] = None):
        self.sim = sim
        #: ``None`` means every category; otherwise a frozenset filter.
        self.categories = (None if categories is None
                           else frozenset(categories))
        #: Every event that passed the filter, in emission order.
        self.events: list[TraceEvent] = []

    def wants(self, category: str) -> bool:
        """True when events of ``category`` pass the filter."""
        return self.categories is None or category in self.categories

    def emit(self, category: str, name: str, track: str,
             severity: int = INFO, **args) -> None:
        """Build and keep one event (skipped if filtered out)."""
        if not self.wants(category):
            return
        self.events.append(TraceEvent(self.sim.now, category, name, track,
                                      severity, args))

    # -- typed probe helpers -------------------------------------------------
    # Each helper owns its payload schema (see repro.obs.events taxonomy)
    # and applies the category filter before building the args dict.

    def queue_enqueue(self, queue, packet) -> None:
        if self.wants("queue"):
            self.emit("queue", "enqueue", queue.name,
                      pkt_id=packet.pkt_id, size=packet.size,
                      depth_pkts=queue.packet_length,
                      depth_bytes=queue.byte_length)

    def queue_dequeue(self, queue, packet) -> None:
        if self.wants("queue"):
            self.emit("queue", "dequeue", queue.name,
                      pkt_id=packet.pkt_id, size=packet.size,
                      depth_pkts=queue.packet_length,
                      depth_bytes=queue.byte_length)

    def queue_drop(self, queue, packet, reason: str) -> None:
        if self.wants("queue"):
            self.emit("queue", "drop", queue.name, severity=WARN,
                      pkt_id=packet.pkt_id, size=packet.size, reason=reason,
                      depth_pkts=queue.packet_length,
                      depth_bytes=queue.byte_length)

    def link_rate(self, link, rate_bps: float) -> None:
        if self.wants("link"):
            self.emit("link", "rate", link.name, value=rate_bps)

    def link_txop(self, link, pkts: int, nbytes: int,
                  airtime_s: float, rate_bps: float) -> None:
        if self.wants("link"):
            self.emit("link", "txop", link.name, pkts=pkts, bytes=nbytes,
                      airtime_s=airtime_s, rate_bps=rate_bps)

    def link_delivery(self, link, packet) -> None:
        if self.wants("link"):
            self.emit("link", "deliver", link.name,
                      pkt_id=packet.pkt_id, size=packet.size)

    def ap_prediction(self, track: str, packet, prediction) -> None:
        if self.wants("ap"):
            self.emit("ap", "predict", track, pkt_id=packet.pkt_id,
                      q_long=prediction.q_long, q_short=prediction.q_short,
                      tx=prediction.tx, total=prediction.total)

    def ap_delta(self, track: str, delta: float, banked: bool) -> None:
        if self.wants("ap"):
            self.emit("ap", "delta", track, value=delta, banked=banked)

    def ap_tokens(self, track: str, outstanding: float) -> None:
        if self.wants("ap"):
            self.emit("ap", "tokens", track, value=outstanding)

    def ap_ack_delay(self, track: str, sampled: float, injected: float,
                     tokens: float) -> None:
        if self.wants("ap"):
            self.emit("ap", "ack_delay", track, sampled=sampled,
                      injected=injected, tokens=tokens)

    def ap_feedback(self, track: str, reports: int, base_seq: int) -> None:
        if self.wants("ap"):
            self.emit("ap", "feedback", track, reports=reports,
                      base_seq=base_seq)

    def cca_cwnd(self, track: str, cwnd: int) -> None:
        if self.wants("cca"):
            self.emit("cca", "cwnd", track, value=cwnd)

    def cca_rate(self, track: str, target_bps: float) -> None:
        if self.wants("cca"):
            self.emit("cca", "rate", track, value=target_bps)

    def fault_window(self, track: str, kind: str, index: int,
                     duration_s: float, target: str,
                     magnitude: Optional[float] = None) -> None:
        if self.wants("fault"):
            args = dict(kind=kind, index=index, duration_s=duration_s,
                        target=target)
            if magnitude is not None:
                args["magnitude"] = magnitude
            self.emit("fault", "window", track, severity=WARN, **args)

    def fault_phase(self, track: str, kind: str, index: int,
                    phase: str) -> None:
        if self.wants("fault"):
            self.emit("fault", "phase", track, severity=WARN,
                      kind=kind, index=index, phase=phase)

    def fault_loss(self, track: str, pkt_id: int, direction: str) -> None:
        if self.wants("fault"):
            self.emit("fault", "loss", track, pkt_id=pkt_id,
                      direction=direction)

    def fault_watchdog(self, track: str, state: str, reason: str) -> None:
        if self.wants("fault"):
            self.emit("fault", "watchdog", track, severity=WARN,
                      state=state, reason=reason)

    def control_state(self, track: str, state: str, reason: str) -> None:
        if self.wants("control"):
            self.emit("control", "state", track, severity=WARN,
                      state=state, reason=reason)

    def control_policy(self, track: str, state: str, window_s: float,
                       passthrough: bool) -> None:
        if self.wants("control"):
            self.emit("control", "policy", track, state=state,
                      window_s=window_s, passthrough=passthrough)

    def control_steer(self, track: str, client: str, old_ap: str,
                      new_ap: str, phase: str) -> None:
        if self.wants("control"):
            self.emit("control", "steer", track, severity=WARN,
                      client=client, old_ap=old_ap, new_ap=new_ap,
                      phase=phase)
