"""Materializes a :class:`ScenarioSpec` into the live simulation graph.

The builder is the single construction path for every experiment: the
paper's single-AP chain (via :func:`repro.topology.presets.single_ap_topology`,
when the spec names no topology) and genuine multi-AP graphs
(interference, roaming, first-mile) both go through here. It builds the
spec's bandwidth trace once, then the graph in a fixed order — edges,
then APs, then flows, then tracing, then faults — with pinned RNG fork
labels, queue classes, and component names, so campaign results
reproduce bit-identically (pinned by ``tests/data/golden_summaries.json``).

Routes, per-hop receivers and roaming belong to the graph's
:class:`~repro.topology.forwarding.Forwarding` object
(``builder.forwarding``); :func:`repro.topology.result.collect` turns
the finished run into its :class:`~repro.campaign.summary.ScenarioSummary`.
"""

from __future__ import annotations

from typing import Optional

from repro.aqm import make_queue
from repro.app.bulk import BulkSenderApp, PeriodicBulkApp
from repro.app.video import VideoEncoder
from repro.baselines.fastack import FastAckProxy
from repro.baselines.passthrough import PassthroughAP
from repro.cca import make_window_cca
from repro.cca.abc import AbcRouter
from repro.core.feedback_updater import FeedbackKind
from repro.core.zhuge_ap import ZhugeAP
from repro.metrics.recorder import RateRecorder
from repro.net.link import WiredLink
from repro.net.packet import FiveTuple
from repro.obs.session import TraceConfig, TraceSession
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.forwarding import (ApRuntime, EdgeRuntime, FlowRuntime,
                                       Forwarding)
from repro.topology.presets import single_ap_topology
from repro.topology.result import collect
from repro.topology.spec import EdgeSpec, FlowSpec, NodeSpec
from repro.topology.stacks import STACKS, BulkFlowAdapter
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.wireless.cellular import CellularLink
from repro.wireless.channel import WirelessChannel
from repro.wireless.contention import ContentionDomain
from repro.wireless.interference import InterferenceModel
from repro.wireless.link import WirelessLink
from repro.wireless.mcs import McsController


class TopologyBuilder:
    """Constructs and runs one :class:`ScenarioSpec`; the engine behind
    every driver.

    The spec supplies scenario-level knobs (protocol, CCA, duration,
    seed, the default bandwidth trace, tracing/fault/control plans) and
    the graph: ``spec.topology``, or the paper's single-AP chain derived
    from the spec itself.
    """

    def __init__(self, spec):
        self.spec = spec
        #: The scenario-level trace, shared by every wireless edge that
        #: does not carry its own.
        self.trace = spec.trace.build()
        self.topology = spec.topology or single_ap_topology(spec)
        self.sim = Simulator()
        self.rng = DeterministicRandom(spec.seed)

        self.edges: dict[str, EdgeRuntime] = {}
        self.aps: dict[str, ApRuntime] = {}
        self._mcs: dict[str, McsController] = {}
        self._mcs_started: set[str] = set()
        self._domains: dict[str, ContentionDomain] = {}
        self.forwarding = Forwarding(self.sim, self.topology.nodes,
                                     self.edges, self.aps)

        for edge in self.topology.edges:
            self.edges[edge.name] = self._build_edge(edge)
        for node in self.topology.nodes:
            if node.role == "ap":
                self.aps[node.name] = self._build_ap(node)
        self.forwarding.wire()
        self._build_flows()

        self.trace_session: Optional[TraceSession] = None
        if spec.trace_config is not None:
            self._attach_tracing(spec.trace_config)
        self.fault_injector = None
        if spec.faults is not None:
            self._attach_faults(spec.faults)
        #: Per-AP adaptive controllers (repro.control), by AP node name.
        self.controllers: dict[str, object] = {}
        #: Fleet steering daemon; ``None`` unless the spec enables it.
        self.steering = None
        if spec.control is not None:
            self._attach_control(spec.control)

    # -- edges ---------------------------------------------------------------

    def _build_edge(self, edge: EdgeSpec) -> EdgeRuntime:
        if edge.kind == "wired":
            link = WiredLink(self.sim, edge.rate_bps, edge.delay,
                             name=edge.name)
            return EdgeRuntime(spec=edge, link=link, enabled=edge.enabled)

        mcs = None
        if edge.mcs_group is not None:
            mcs = self._mcs.get(edge.mcs_group)
            if mcs is None:
                mcs = McsController()
                self._mcs[edge.mcs_group] = mcs
            if (edge.mcs_period is not None
                    and edge.mcs_group not in self._mcs_started):
                mcs.start_random_switching(self.sim, edge.mcs_period,
                                           self.rng.fork(edge.mcs_group))
                self._mcs_started.add(edge.mcs_group)

        trace = edge.trace.build() if edge.trace is not None else self.trace
        if edge.trace_scale != 1.0:
            trace = trace.scaled(edge.trace_scale)
        channel = WirelessChannel(trace, mcs=mcs)

        interference = None
        if edge.interferers > 0:
            label = edge.seed_label or f"intf-{edge.name}"
            interference = InterferenceModel(self.rng.fork(label),
                                             edge.interferers)

        queue = make_queue(edge.queue_kind, edge.queue_capacity, edge.name)

        if edge.kind == "cellular":
            link = CellularLink(self.sim, channel, queue,
                                name=f"{edge.name}-cell")
        else:
            domain = None
            if edge.channel_group is not None:
                domain = self._domains.get(edge.channel_group)
                if domain is None:
                    domain = ContentionDomain(
                        self.rng.fork(f"chan-{edge.channel_group}"))
                    self._domains[edge.channel_group] = domain
            link = WirelessLink(self.sim, channel, queue,
                                interference=interference,
                                max_ampdu_packets=edge.max_ampdu_packets,
                                name=f"{edge.name}-wifi", domain=domain)
        runtime = EdgeRuntime(spec=edge, link=link, queue=queue,
                              channel=channel, enabled=edge.enabled)
        if not edge.enabled:
            link.block()
        return runtime

    # -- APs -----------------------------------------------------------------

    def _ap_downlink_edge(self, name: str) -> Optional[EdgeRuntime]:
        """The AP's serving wireless edge (enabled preferred)."""
        wireless = [er for er in self.edges.values()
                    if er.spec.src == name and er.spec.wireless]
        for er in wireless:
            if er.enabled:
                return er
        return wireless[0] if wireless else None

    def _build_ap(self, node: NodeSpec) -> ApRuntime:
        spec = self.spec
        down = self._ap_downlink_edge(node.name)
        runtime = ApRuntime(node=node, ap=None)
        if node.ap_mode == "zhuge":
            if down is None:
                raise ValueError(
                    f"zhuge AP {node.name!r} needs a wireless downlink edge")
            label = node.seed_label or f"zhuge-{node.name}"
            ap = ZhugeAP(self.sim, down.queue, rng=self.rng.fork(label))
            if spec.record_predictions:
                ap.join_predictions(record=True)
            ap.track_name = node.name
            runtime.zhuge = ap
        else:
            ap = PassthroughAP()
            if node.ap_mode == "abc":
                if down is None:
                    raise ValueError(
                        f"abc AP {node.name!r} needs a wireless downlink "
                        f"edge")
                share = 1.0
                if down.spec.interferers > 0:
                    share = 1.0 / (1.0 + down.spec.interferers)
                runtime.abc_router = AbcRouter(
                    down.queue,
                    capacity_fn=lambda now, s=share, ch=down.channel:
                        ch.rate_at(now) * s)
        runtime.ap = ap
        return runtime

    # -- flows ---------------------------------------------------------------

    def _build_flows(self) -> None:
        if not any(f.role == "rtc" for f in self.topology.flows):
            raise ValueError("topology declares no rtc flow")
        rtc_index = 0
        competitor_index = 0
        for fspec in self.topology.flows:
            if fspec.role == "competitor":
                self._build_competitor(fspec, competitor_index)
                competitor_index += 1
            else:
                self._build_rtc_flow(fspec, rtc_index)
                rtc_index += 1

    def _flow_tuple(self, fspec: FlowSpec, protocol: str, base_src: int,
                    base_dst: int, index: int) -> FiveTuple:
        src_port = fspec.src_port or base_src + index
        dst_port = fspec.dst_port or base_dst + index
        return FiveTuple(fspec.src, fspec.dst, src_port, dst_port,
                         "udp" if protocol == "rtp" else "tcp")

    def _build_rtc_flow(self, fspec: FlowSpec, index: int) -> None:
        spec = self.spec
        protocol = fspec.protocol or spec.protocol
        stack = STACKS[protocol]
        cca = stack.cca(fspec.cca or spec.cca, spec)
        flow = self._flow_tuple(fspec, protocol, 5000, 6000, index)
        sender = stack.sender(self.sim, flow, cca)
        # ``collect`` reads it; competitors record nothing.
        sender.rate_recorder = RateRecorder(spec.warmup)
        receiver = stack.receiver(self.sim, flow)
        if protocol == "tcp" and (fspec.app or spec.app) == "bulk":
            # Buffer-filling flow for the CCA studies (paper Fig. 4):
            # no encoder, the window is always tested.
            app = BulkFlowAdapter(self.sim, sender)
        else:
            # Explicit ``seed_label``s (generated city flows) make the
            # encoder stream a function of the spec alone; the per-run
            # counter keeps every other flow's goldens bit-exact.
            label = fspec.seed_label or f"enc-{index}"
            encoder = VideoEncoder(fps=spec.fps, rng=self.rng.fork(label))
            app = stack.app(self.sim, sender, receiver, encoder, spec)
        fr = FlowRuntime(spec=fspec, flow=flow, protocol=protocol,
                         sender=sender, receiver=receiver, app=app,
                         optimized=fspec.optimized)
        self.forwarding.add_flow(fr, stack.feedback(sender))
        self._register_rtc(fr, stack.kind)

    def _register_rtc(self, fr: FlowRuntime, kind: FeedbackKind) -> None:
        """Zhuge/FastAck registration on the flow's serving AP."""
        ap_rt = self.aps.get(fr.serving_ap) if fr.serving_ap else None
        if ap_rt is None:
            return
        if ap_rt.zhuge is not None and fr.optimized:
            ap_rt.zhuge.register_flow(fr.flow, kind)
            fr.kind = kind
        if (ap_rt.node.ap_mode == "fastack" and fr.optimized
                and fr.protocol == "tcp"):
            proxy = FastAckProxy(self.sim, fr.flow)
            proxy.forward_uplink = ap_rt.ap.on_uplink
            ap_rt.fastack[fr.flow] = proxy

    def _build_competitor(self, fspec: FlowSpec, index: int) -> None:
        flow = self._flow_tuple(fspec, "tcp", 7000, 8000, index)
        sender = TcpSender(self.sim, flow,
                           make_window_cca(fspec.cca or "cubic"))
        receiver = TcpReceiver(self.sim, flow)
        fr = FlowRuntime(spec=fspec, flow=flow, protocol="tcp",
                         sender=sender, receiver=receiver, app=None)
        self.forwarding.add_flow(fr, sender.on_ack)
        if fspec.period is not None:
            fr.app = PeriodicBulkApp(self.sim, sender, period=fspec.period)
        else:
            fr.app = BulkSenderApp(self.sim, sender)

    # -- views ---------------------------------------------------------------

    @property
    def zhuge(self) -> Optional[ZhugeAP]:
        """The first Zhuge AP in node order."""
        for ap_rt in self.aps.values():
            if ap_rt.zhuge is not None:
                return ap_rt.zhuge
        return None

    @property
    def downlink_queue(self):
        er = self.forwarding.ap_edge("down")
        return er.queue if er is not None else None

    @property
    def downlink_wireless(self):
        er = self.forwarding.ap_edge("down")
        return er.link if er is not None else None

    @property
    def video_apps(self) -> list:
        """``(sender, receiver, app)`` of every RTC flow."""
        return [(fr.sender, fr.receiver, fr.app)
                for fr in self.forwarding.rtc]

    # -- tracing (repro.obs) -------------------------------------------------

    def _attach_tracing(self, trace_config: TraceConfig) -> None:
        """Attach probes to every instrumented component: one track per
        wireless edge's queue and link, one per optimizing AP, one per
        RTC sender CCA."""
        session = TraceSession(self.sim, trace_config)
        bus = session.bus
        for er in self.edges.values():
            if er.spec.wireless:
                er.queue.trace = bus
                er.link.trace = bus
        for ap_rt in self.aps.values():
            if ap_rt.zhuge is not None:
                ap_rt.zhuge.enable_trace(bus)
                ap_rt.zhuge.join_predictions(record=True)
        for fr in self.forwarding.rtc:
            cca = getattr(fr.sender, "cca", None)
            if cca is not None and hasattr(cca, "enable_trace"):
                cca.enable_trace(
                    bus, f"cca/{fr.flow.src_port}->{fr.flow.dst_port}")
        self.trace_session = session

    # -- fault injection (repro.faults) --------------------------------------

    def _attach_faults(self, plan) -> None:
        """Arm the plan's faults against the built topology; a fault
        aimed at a name the topology lacks raises ``ValueError``."""
        from repro.faults.injector import FaultInjector
        if plan.watchdog_enabled:
            for ap_rt in self.aps.values():
                if ap_rt.zhuge is not None:
                    ap_rt.zhuge.enable_watchdog()
        self.fault_injector = FaultInjector(
            self.sim, plan,
            trace=self.trace_session.bus if self.trace_session else None,
            mover=self.forwarding)

    # -- adaptive control (repro.control) ------------------------------------

    def _attach_control(self, control) -> None:
        """Attach per-AP controllers and (optionally) fleet steering.

        Runs after fault attachment on purpose: a watchdog armed by the
        fault plan is adopted by the controller (which takes over its
        demote/promote authority); APs without one get a default one.
        """
        from repro.control.controller import ZhugeController
        from repro.control.steering import SteeringDaemon
        bus = self.trace_session.bus if self.trace_session else None
        for name, ap_rt in self.aps.items():
            if ap_rt.zhuge is None:
                continue
            self.controllers[name] = ZhugeController(
                self.sim, ap_rt.zhuge, edge=self._ap_downlink_edge(name),
                trace=bus, track=f"{name}/control")
        if control.steering:
            self.steering = SteeringDaemon(
                self.sim, self.forwarding, self.controllers, trace=bus)

    # -- run -----------------------------------------------------------------

    def run(self) -> "ScenarioSummary":  # noqa: F821
        try:
            self.sim.run(until=self.spec.duration)
        except Exception as exc:
            if self.trace_session is not None:
                self.trace_session.dump_on_error(exc)
            raise
        return collect(self)
