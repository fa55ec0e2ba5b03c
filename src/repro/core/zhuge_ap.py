"""ZhugeAP: the middlebox wiring Fortune Teller + Feedback Updater.

Sits at the last-mile AP between the WAN port and the wireless downlink
queue. For each registered RTC flow it:

* intercepts downlink data packets, runs the Fortune Teller, updates the
  Feedback Updater state, then forwards the packet to the wireless link
  as usual;
* intercepts uplink feedback packets of the same flow (matched by the
  reversed five-tuple) and either delays them (out-of-band) or replaces
  them with AP-constructed TWCC (in-band) before sending them up the
  WAN.

Non-registered flows pass through untouched — Zhuge only optimizes the
flows on its configurable IP list (§7.1).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.feedback_updater import (FeedbackKind,
                                         OutOfBandFeedbackUpdater)
from repro.core.fortune_teller import FortuneTeller
from repro.core.inband import InBandFeedbackUpdater
from repro.core.prediction_join import PredictionJoin
from repro.core.sliding_window import DEFAULT_WINDOW
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom

ForwardCallback = Callable[[Packet], None]


class ZhugeAP:
    """Access point running Zhuge for a set of registered flows."""

    def __init__(self, sim: Simulator, downlink_queue: DropTailQueue,
                 rng: Optional[DeterministicRandom] = None):
        self.sim = sim
        self.downlink_queue = downlink_queue
        self.rng = rng or DeterministicRandom(0)
        self.window = DEFAULT_WINDOW

        # One shared Fortune Teller when every flow shares the queue.
        # Flow-isolating disciplines (fq_codel) instead get a per-flow
        # teller at registration (§4.1): the flow's delay depends on its
        # own sub-queue and its own service share, not the aggregate.
        self._flow_isolating = hasattr(downlink_queue, "flow_queue")
        self.fortune_teller = FortuneTeller(sim, downlink_queue,
                                            window=self.window)
        self._flow_tellers: dict[FiveTuple, FortuneTeller] = {}

        self.forward_downlink: Optional[ForwardCallback] = None
        self.forward_uplink: Optional[ForwardCallback] = None
        #: Uplink-out callable, bound once: every feedback updater's
        #: ``release_forward`` / ``send_uplink`` and the unregistered-flow
        #: path of :meth:`on_ack_batch` share it.
        self._uplink_out_cb: ForwardCallback = self._uplink_out

        self._oob: dict[FiveTuple, OutOfBandFeedbackUpdater] = {}
        self._inband: dict[FiveTuple, InBandFeedbackUpdater] = {}
        # Hot-path lookup tables: one merged dict per direction, so the
        # per-packet path costs a single ``.get``. The uplink table is
        # keyed by the *uplink* five-tuple, so the per-ACK path looks
        # the updater up with the packet's own flow instead of building
        # a reversed tuple per ACK.
        self._downlink_updaters: dict[FiveTuple, object] = {}
        self._uplink_updaters: dict[FiveTuple, object] = {}
        self.packets_processed = 0
        #: Prediction–truth join (:mod:`repro.core.prediction_join`);
        #: ``None`` until :meth:`join_predictions`.
        self.predictions: Optional[PredictionJoin] = None
        #: Estimator-health watchdog (:mod:`repro.faults.watchdog`);
        #: ``None`` until :meth:`enable_watchdog`, in which case the AP
        #: never degrades and behaves exactly as before.
        self.watchdog = None
        #: True while demoted to passthrough (mirrored onto updaters).
        self.passthrough = False
        #: Number of :meth:`reset_state` calls (restart/handover events).
        self.resets = 0
        #: Tracing bus (:class:`repro.obs.bus.TraceBus`); ``None`` =
        #: disabled. Set via :meth:`enable_trace`, which also fans the bus
        #: out to every registered updater (and to ones registered later).
        self.trace = None
        #: Trace-track prefix; multi-AP topologies set this to the AP's
        #: node name so each AP gets its own track family.
        self.track_name = "ap"
        #: Active :class:`~repro.control.spec.ControlPolicy` (a rung of
        #: :data:`~repro.control.spec.LADDER`); ``None`` until
        #: :meth:`apply_policy`. Flows registered later inherit it.
        self.policy = None
        # Downlink capacity before any policy clamp; restored when a
        # policy without a queue_limit is applied.
        self._native_queue_capacity: Optional[int] = None

    # -- flow registration (the AP's configurable IP list) -------------------

    def register_flow(self, flow: FiveTuple, kind: FeedbackKind,
                      distributional: bool = True) -> None:
        """Enable Zhuge for ``flow`` (downlink direction five-tuple).

        ``distributional`` selects §5.2's delta sampling for out-of-band
        flows; ``False`` maps banked deltas onto ACKs one-to-one (the
        per-packet ablation variant). It is ignored for in-band flows.
        """
        teller = self._teller_for(flow)
        if kind is FeedbackKind.OUT_OF_BAND:
            updater = OutOfBandFeedbackUpdater(
                self.sim, teller,
                rng=self.rng.fork(f"oob-{flow.src_port}-{flow.dst_port}"),
                window=self.window,
                distributional=distributional)
            updater.release_forward = self._uplink_out_cb
            self._oob[flow] = updater
        else:
            updater = InBandFeedbackUpdater(
                self.sim, teller, flow,
                feedback_interval=self.window)
            updater.send_uplink = self._uplink_out_cb
            self._inband[flow] = updater
        self._downlink_updaters[flow] = updater
        self._uplink_updaters[flow.reversed()] = updater
        if self.trace is not None:
            updater.enable_trace(self.trace, self._flow_track(flow))
        # A flow registered while the AP is degraded starts degraded too,
        # and one registered under an active control policy inherits it.
        updater.passthrough = self.passthrough
        if self.policy is not None:
            self._retune_updater(updater, self.policy)

    def enable_trace(self, bus) -> None:
        """Attach a trace bus to the AP and all registered updaters."""
        self.trace = bus
        for flow, updater in {**self._oob, **self._inband}.items():
            updater.enable_trace(bus, self._flow_track(flow))
        if self.watchdog is not None:
            self.watchdog.enable_trace(bus)

    def join_predictions(self, record: bool = False) -> PredictionJoin:
        """The AP's prediction join, created on first subscription;
        ``record`` keeps every joined pair (Fig. 19, the trace auditor)."""
        if self.predictions is None:
            self.predictions = PredictionJoin(self.sim)
        if record:
            self.predictions.record = True
        return self.predictions

    # -- graceful degradation (repro.faults) ---------------------------------

    def enable_watchdog(self) -> None:
        """Attach an estimator-health watchdog that can demote the AP.

        Lazy import: ``repro.core`` stays importable without the fault
        layer, and un-watchdogged APs pay nothing.
        """
        from repro.faults.watchdog import EstimatorHealthWatchdog
        self.watchdog = EstimatorHealthWatchdog(
            self.sim, self.join_predictions(),
            on_demote=self._on_watchdog_demote,
            on_promote=self._on_watchdog_promote)
        if self.trace is not None:
            self.watchdog.enable_trace(self.trace)

    def _on_watchdog_demote(self, reason: str) -> None:
        """Fall back to passthrough: forward everything undelayed."""
        self.passthrough = True
        for updater in self._oob.values():
            updater.passthrough = True
            updater.reset_state()
        for updater in self._inband.values():
            updater.passthrough = True
            updater.reset_state()

    def _on_watchdog_promote(self, reason: str) -> None:
        """Re-engage Zhuge once predictions track reality again."""
        self.passthrough = False
        for updater in self._oob.values():
            updater.passthrough = False
        for updater in self._inband.values():
            updater.passthrough = False

    # -- adaptive control (repro.control) ------------------------------------

    def apply_policy(self, policy) -> None:
        """Retune the live Zhuge parameters to ``policy``.

        The :class:`~repro.control.controller.ZhugeController` calls
        this on every state transition. All knobs take effect on the
        next packet: sliding windows re-expire against their new
        horizon, the token bank is trimmed to the new cap, the downlink
        queue is clamped (head-shedding any excess backlog now), and
        the in-band feedback timer re-anchors at its already-scheduled
        tick. ``passthrough`` rides the existing watchdog
        demote/promote paths so RED is exactly the PR 4 fallback.
        """
        self.policy = policy
        self.window = policy.window
        self._apply_queue_limit(policy)
        self._retune_teller(self.fortune_teller, policy)
        for teller in self._flow_tellers.values():
            self._retune_teller(teller, policy)
        for updater in self._oob.values():
            self._retune_updater(updater, policy)
        for updater in self._inband.values():
            self._retune_updater(updater, policy)
        if policy.passthrough and not self.passthrough:
            self._on_watchdog_demote("policy")
        elif not policy.passthrough and self.passthrough:
            self._on_watchdog_promote("policy")

    def _apply_queue_limit(self, policy) -> None:
        """Clamp (or restore) the downlink queue per ``policy``.

        A full queue at a crashed link rate is seconds of committed
        tail latency; for RTC traffic the stale head packets are worth
        less than the loss signal their drop produces, so the clamp
        head-trims immediately instead of waiting for the drain.
        """
        queue = self.downlink_queue
        if queue is None:
            return
        if policy.queue_limit is None:
            if self._native_queue_capacity is not None:
                queue.capacity_bytes = self._native_queue_capacity
                self._native_queue_capacity = None
            return
        if self._native_queue_capacity is None:
            self._native_queue_capacity = queue.capacity_bytes
        limit = max(1, int(self._native_queue_capacity * policy.queue_limit))
        queue.capacity_bytes = limit
        queue.trim_head(limit, "control-trim")

    @staticmethod
    def _retune_teller(teller: FortuneTeller, policy) -> None:
        teller.window = policy.window
        teller.tx_rate.window = policy.window
        teller.tx_rate_long.window = policy.window * 10
        teller.dequeue_intervals.window = policy.window
        teller.burst_correction = policy.burst_correction

    @staticmethod
    def _retune_updater(updater, policy) -> None:
        if isinstance(updater, OutOfBandFeedbackUpdater):
            updater.window = policy.window
            updater.delta_history.window = policy.window
            updater.max_extra_delay = policy.max_extra_delay
            updater.token_history.set_limits(policy.token_bank_cap,
                                             policy.token_ttl)
        else:
            updater._timer.interval = policy.feedback_interval

    def reset_state(self) -> None:
        """Simulate an AP restart / client handover: wipe learned state.

        Estimator windows, token banks, delta ledgers and open
        predictions are forgotten; output-ordering clamps survive
        (release times stay monotone). The watchdog, if attached,
        demotes immediately — post-reset predictions are garbage until
        the windows refill.
        """
        self.resets += 1
        self.fortune_teller.reset()
        for teller in self._flow_tellers.values():
            teller.reset()
        for updater in self._oob.values():
            updater.reset_state()
        for updater in self._inband.values():
            updater.reset_state()
        if self.predictions is not None:
            self.predictions.reset()
        if self.watchdog is not None:
            self.watchdog.notify_reset()

    def _flow_track(self, flow: FiveTuple) -> str:
        return f"{self.track_name}/{flow.src_port}->{flow.dst_port}"

    def _teller_for(self, flow: FiveTuple) -> FortuneTeller:
        if not self._flow_isolating:
            return self.fortune_teller
        if flow not in self._flow_tellers:
            self._flow_tellers[flow] = FortuneTeller(
                self.sim, self.downlink_queue, window=self.window, flow=flow)
        return self._flow_tellers[flow]

    def registered_kind(self, flow: FiveTuple) -> Optional[FeedbackKind]:
        if flow in self._oob:
            return FeedbackKind.OUT_OF_BAND
        if flow in self._inband:
            return FeedbackKind.IN_BAND
        return None

    def release_floor(self, flow: FiveTuple) -> float:
        """The flow's feedback release-time floor (0 if not applicable).

        Only out-of-band flows carry one: the last release instant that
        no later feedback may precede. Inter-AP handoffs read it off the
        old AP and :meth:`adopt_release_floor` it onto the new one so
        release times stay monotone across the move.
        """
        updater = self._oob.get(flow)
        return updater.release_floor if updater is not None else 0.0

    def adopt_release_floor(self, flow: FiveTuple, floor: float) -> None:
        """Raise the flow's release floor to ``floor`` (handoff import)."""
        updater = self._oob.get(flow)
        if updater is not None:
            updater.adopt_release_floor(floor)

    def out_of_band_updater(self, flow: FiveTuple) -> OutOfBandFeedbackUpdater:
        return self._oob[flow]

    def in_band_updater(self, flow: FiveTuple) -> InBandFeedbackUpdater:
        return self._inband[flow]

    # -- datapath ----------------------------------------------------------------

    def on_downlink(self, packet: Packet) -> None:
        """A packet arrived from the WAN heading to the wireless client."""
        self.packets_processed += 1
        updater = self._downlink_updaters.get(packet.flow)
        if updater is not None:
            updater.on_data_packet(packet)
            if self.predictions is not None:
                self.predictions.note(
                    packet.pkt_id, packet.flow,
                    updater.fortune_teller.last_prediction.total)
        if self.forward_downlink is not None:
            self.forward_downlink(packet)

    def on_uplink(self, packet: Packet) -> None:
        """A packet arrived from the client heading to the WAN."""
        self.on_ack_batch([packet])

    def on_ack_batch(self, packets: list) -> None:
        """Packets that arrived from the client together: each goes to its
        flow's feedback updater (a held ACK rides its release run) or out."""
        self.packets_processed += len(packets)
        updaters = self._uplink_updaters
        out = self._uplink_out_cb
        for packet in packets:
            updater = updaters.get(packet.flow)
            if updater is not None:
                updater.on_feedback_packet(packet)
            else:
                out(packet)

    def on_wireless_delivery(self, packet: Packet) -> None:
        """The wireless hop delivered a packet: join its prediction
        (and retire its flow's older, lost ones)."""
        if self.predictions is not None:
            self.predictions.deliver(packet.pkt_id)

    def hotpath_stats(self):
        """Per-component hot-path counter snapshots (plus a total).

        Lazy import keeps ``repro.core`` free of metrics dependencies on
        the datapath; only this reporting accessor crosses the boundary.
        """
        from repro.metrics.hotpath import snapshot_ap
        return snapshot_ap(self)

    def _uplink_out(self, packet: Packet) -> None:
        if self.forward_uplink is not None:
            self.forward_uplink(packet)

    def stop(self) -> None:
        for updater in self._inband.values():
            updater.stop()
        if self.watchdog is not None:
            self.watchdog.stop()
