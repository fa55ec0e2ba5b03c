"""Materializes a :class:`ScenarioSpec` into the live simulation graph.

The builder is the single construction path for every experiment: the
paper's single-AP chain (via :func:`repro.topology.spec.single_ap_topology`,
when the spec names no topology) and genuine multi-AP graphs
(interference, roaming, first-mile) both go through here. It builds the
spec's bandwidth trace once, then the graph in a fixed order — edges,
then APs, then flows, then tracing, then faults — with pinned RNG fork
labels, queue classes, and component names, so campaign results
reproduce bit-identically (pinned by ``tests/data/golden_summaries.json``).

Packets are steered by a per-flow routing table computed with BFS over
*enabled* edges: each AP's forward callbacks look up
``(node, packet.flow) -> next edge``. Roaming re-runs the route
computation after flipping edge ``enabled`` flags, which is what makes
an inter-AP handoff a first-class operation (see :meth:`begin_roam` /
:meth:`complete_roam`).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.aqm import make_queue
from repro.app.bulk import BulkSenderApp, PeriodicBulkApp
from repro.app.video import RtpVideoApp, TcpVideoApp, VideoEncoder
from repro.baselines.fastack import FastAckProxy
from repro.baselines.passthrough import PassthroughAP
from repro.cca import make_rate_cca, make_window_cca
from repro.cca.abc import AbcRouter
from repro.core.feedback_updater import FeedbackKind
from repro.core.zhuge_ap import ZhugeAP
from repro.metrics.recorder import FrameRecorder, RttRecorder, column
from repro.net.link import WiredLink
from repro.net.packet import FiveTuple, Packet, PacketKind
from repro.obs.session import TraceConfig, TraceSession
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.spec import (EdgeSpec, FlowSpec, NodeSpec,
                                 single_ap_topology)
from repro.transport.rtp import RtpReceiver, RtpSender
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.wireless.cellular import CellularLink
from repro.wireless.channel import WirelessChannel
from repro.wireless.contention import ContentionDomain
from repro.wireless.interference import InterferenceModel
from repro.wireless.link import WirelessLink
from repro.wireless.mcs import McsController


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


@dataclass
class EdgeRuntime:
    """One live link plus its spec and (for wireless) channel state."""

    spec: EdgeSpec
    link: object
    queue: Optional[object] = None
    channel: Optional[WirelessChannel] = None
    enabled: bool = True

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class ApRuntime:
    """One live AP: forwarding element plus optional optimizer state."""

    node: NodeSpec
    ap: object
    zhuge: Optional[ZhugeAP] = None
    abc_router: Optional[AbcRouter] = None
    fastack: dict = field(default_factory=dict)


@dataclass
class FlowRuntime:
    """One live transport flow and where it currently attaches."""

    spec: FlowSpec
    flow: FiveTuple
    protocol: str
    sender: object
    receiver: object
    app: object
    optimized: bool = False
    #: Name of the AP whose wireless hop serves this flow's last mile
    #: (where Zhuge/FastAck registration lives); updated on roam.
    serving_ap: Optional[str] = None
    kind: Optional[FeedbackKind] = None


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
        #: node -> flow five-tuple -> next-hop edge (the routing table).
        self._routes: dict[str, dict[FiveTuple, EdgeRuntime]] = {}
        #: node -> flow five-tuple -> endpoint callback.
        self._handlers: dict[str, dict[FiveTuple, object]] = {}
        self._network_rtt: dict[FiveTuple, RttRecorder] = {}
        self._return_delay: dict[FiveTuple, float] = {}
        self._rtc: list[FlowRuntime] = []
        self._competitors: list[FlowRuntime] = []
        #: Packets that reached a node with no route for their flow
        #: (data still in flight toward an AP the client just left).
        self.undeliverable = 0

        for node in self.topology.nodes:
            self._routes[node.name] = {}
            self._handlers[node.name] = {}

        self._build_edges()
        self._build_aps()
        self._wire_edges()
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

    def _build_edges(self) -> None:
        for edge in self.topology.edges:
            self.edges[edge.name] = self._build_edge(edge)

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

    def _out_edges(self, node: str) -> list[EdgeRuntime]:
        return [er for er in self.edges.values() if er.spec.src == node]

    def _in_edges(self, node: str) -> list[EdgeRuntime]:
        return [er for er in self.edges.values() if er.spec.dst == node]

    # -- APs -----------------------------------------------------------------

    def _build_aps(self) -> None:
        for node in self.topology.nodes:
            if node.role == "ap":
                self.aps[node.name] = self._build_ap(node)

    def _ap_downlink_edge(self, name: str) -> Optional[EdgeRuntime]:
        """The AP's serving wireless edge (enabled preferred)."""
        wireless = [er for er in self._out_edges(name) if er.spec.wireless]
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
        ap.forward_downlink = ap.forward_uplink = \
            self._make_forward(node.name)
        return runtime

    # -- datapath wiring -----------------------------------------------------

    def _wire_edges(self) -> None:
        for er in self.edges.values():
            if er.spec.dst in self.aps:
                ap_rt = self.aps[er.spec.dst]
                if er.spec.wireless:
                    er.link.deliver_batch = self._make_ap_wireless_in(ap_rt)
                else:
                    er.link.deliver = self._make_ap_wired_in(ap_rt)
            else:
                body = er.link.deliver_batch = self._make_terminal_in(er)
                if not er.spec.wireless:
                    # For callers that hand over one packet at a time
                    # (``WiredLink`` prefers the list body).
                    er.link.deliver = lambda packet, body=body: body([packet])

    def _make_ap_wired_in(self, ap_rt: ApRuntime):
        """WAN-side ingress: ABC marking, then the AP downlink path."""
        def deliver(packet: Packet) -> None:
            if (ap_rt.abc_router is not None
                    and packet.kind == PacketKind.DATA):
                ap_rt.abc_router.mark(packet, self.sim.now)
            ap_rt.ap.on_downlink(packet)
        return deliver

    def _make_ap_wireless_in(self, ap_rt: ApRuntime):
        """Client-side ingress: FastAck interception, then the uplink
        path; without FastAck proxies the whole list goes to the AP's
        ``on_ack_batch`` in one call."""
        def deliver(packets: list) -> None:
            fastack = ap_rt.fastack
            if not fastack:
                ap_rt.ap.on_ack_batch(packets)
                return
            on_uplink = ap_rt.ap.on_uplink
            for packet in packets:
                proxy = fastack.get(packet.flow.reversed())
                if proxy is not None:
                    proxy.on_uplink(packet, on_uplink)
                else:
                    on_uplink(packet)
        return deliver

    def _make_terminal_in(self, er: EdgeRuntime):
        """Delivery into a client/server node: bookkeeping + endpoint."""
        src_ap = self.aps.get(er.spec.src) if er.spec.wireless else None
        node = er.spec.dst

        def deliver(packets: list) -> None:
            sim = self.sim
            handlers = self._handlers[node]
            network_rtt = self._network_rtt
            return_delay = self._return_delay
            zhuge = src_ap.zhuge if src_ap is not None else None
            fastack = src_ap.fastack if src_ap is not None else None
            for packet in packets:
                if zhuge is not None:
                    zhuge.on_wireless_delivery(packet)
                if fastack:
                    for proxy in fastack.values():
                        proxy.on_wireless_delivery(packet)
                recorder = network_rtt.get(packet.flow)
                if recorder is not None and packet.kind == PacketKind.DATA:
                    now = sim._now
                    one_way = now - packet.sent_at
                    recorder.record(
                        now, max(0.0, one_way) + return_delay[packet.flow])
                handler = handlers.get(packet.flow)
                if handler is not None:
                    handler(packet)
        return deliver

    def _make_forward(self, node: str):
        """Next-hop send out of ``node``, closed over its route table
        (roaming mutates the table in place, never rebinds it)."""
        routes = self._routes[node]

        def forward(packet: Packet) -> None:
            er = routes.get(packet.flow)
            if er is None:
                self.undeliverable += 1
                return
            er.link.send(packet)
        return forward

    # -- routing -------------------------------------------------------------

    def _path(self, src: str, dst: str) -> list[EdgeRuntime]:
        """BFS shortest path over enabled edges, deterministic by
        edge declaration order."""
        if src == dst:
            return []
        prev: dict[str, Optional[EdgeRuntime]] = {src: None}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for er in self._out_edges(node):
                if not er.enabled or er.spec.dst in prev:
                    continue
                prev[er.spec.dst] = er
                if er.spec.dst == dst:
                    path: list[EdgeRuntime] = []
                    cursor = dst
                    while prev[cursor] is not None:
                        path.append(prev[cursor])
                        cursor = prev[cursor].spec.src
                    path.reverse()
                    return path
                frontier.append(er.spec.dst)
        raise ValueError(f"no path from {src!r} to {dst!r} "
                         f"over enabled edges")

    def _clear_routes(self, flow: FiveTuple) -> None:
        for table in self._routes.values():
            table.pop(flow, None)
            table.pop(flow.reversed(), None)

    def _wire_flow_paths(self, fr: FlowRuntime) -> None:
        """(Re)compute both directions' paths; set transmit callbacks,
        per-hop routes, and the stable return-path delay estimate."""
        forward = self._path(fr.spec.src, fr.spec.dst)
        reverse = self._path(fr.spec.dst, fr.spec.src)
        self._clear_routes(fr.flow)
        for i, er in enumerate(forward[:-1]):
            self._routes[er.spec.dst][fr.flow] = forward[i + 1]
        back = fr.flow.reversed()
        for i, er in enumerate(reverse[:-1]):
            self._routes[er.spec.dst][back] = reverse[i + 1]
        fr.sender.transmit = forward[0].link.send
        fr.receiver.transmit = reverse[0].link.send
        # Stable return-path latency: wireless access (~3 ms typical)
        # plus the wired hops back to the sender.
        self._return_delay[fr.flow] = 0.003 + sum(
            er.spec.delay for er in reverse if er.spec.kind == "wired")
        last = forward[-1]
        fr.serving_ap = (last.spec.src if last.spec.wireless
                         and last.spec.src in self.aps else None)

    # -- flows ---------------------------------------------------------------

    def _build_flows(self) -> None:
        self.video_apps: list = []
        self.bulk_apps: list = []
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

    @staticmethod
    def _enc_label(fspec: FlowSpec, index: int) -> str:
        """RNG fork label of the flow's encoder stream.

        Explicit ``seed_label``s (generated city flows) make the stream
        a function of the spec alone; the historical per-run counter is
        kept for every legacy flow so existing goldens stay bit-exact.
        """
        return fspec.seed_label or f"enc-{index}"

    def _flow_tuple(self, fspec: FlowSpec, protocol: str, base_src: int,
                    base_dst: int, index: int) -> FiveTuple:
        src_port = fspec.src_port or base_src + index
        dst_port = fspec.dst_port or base_dst + index
        return FiveTuple(fspec.src, fspec.dst, src_port, dst_port,
                         "udp" if protocol == "rtp" else "tcp")

    def _build_rtc_flow(self, fspec: FlowSpec, index: int) -> None:
        protocol = fspec.protocol or self.spec.protocol
        if protocol == "rtp":
            self._build_rtp_flow(fspec, index)
        elif protocol == "tcp":
            self._build_tcp_flow(fspec, index)
        else:
            self._build_quic_flow(fspec, index)

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

    def _build_rtp_flow(self, fspec: FlowSpec, index: int) -> None:
        spec = self.spec
        cca_name = fspec.cca or spec.cca
        cca = make_rate_cca(cca_name if cca_name != "copa" else "gcc",
                            initial_bps=spec.initial_bps,
                            max_bps=spec.max_bps)
        flow = self._flow_tuple(fspec, "rtp", 5000, 6000, index)
        sender = RtpSender(self.sim, flow, cca)
        receiver = RtpReceiver(self.sim, flow)
        encoder = VideoEncoder(fps=spec.fps,
                               rng=self.rng.fork(self._enc_label(fspec,
                                                                 index)))
        app = RtpVideoApp(self.sim, sender, receiver, encoder,
                          paced=spec.paced_sender)
        fr = FlowRuntime(spec=fspec, flow=flow, protocol="rtp",
                         sender=sender, receiver=receiver, app=app,
                         optimized=fspec.optimized)
        self._wire_flow_paths(fr)

        def rtcp_dispatch(packet: Packet, s=sender) -> None:
            if packet.kind == PacketKind.RTCP_OTHER:
                s.on_nack(packet)
            else:
                s.on_feedback(packet)

        self._handlers[fspec.dst][flow] = receiver.on_data
        self._handlers[fspec.src][flow.reversed()] = rtcp_dispatch
        self._register_rtc(fr, FeedbackKind.IN_BAND)
        self._network_rtt[flow] = RttRecorder()
        self._rtc.append(fr)
        self.video_apps.append((sender, receiver, app))

    def _build_tcp_flow(self, fspec: FlowSpec, index: int) -> None:
        spec = self.spec
        cca = make_window_cca(fspec.cca or spec.cca)
        flow = self._flow_tuple(fspec, "tcp", 5000, 6000, index)
        sender = TcpSender(self.sim, flow, cca)
        receiver = TcpReceiver(self.sim, flow)
        if (fspec.app or spec.app) == "bulk":
            # Buffer-filling flow for the CCA studies (paper Fig. 4):
            # no encoder, the window is always tested.
            app = _BulkFlowAdapter(self.sim, sender)
        else:
            encoder = VideoEncoder(fps=spec.fps,
                                   rng=self.rng.fork(
                                       self._enc_label(fspec, index)))
            app = TcpVideoApp(self.sim, sender, receiver, encoder,
                              max_rate_bps=spec.max_bps)
        fr = FlowRuntime(spec=fspec, flow=flow, protocol="tcp",
                         sender=sender, receiver=receiver, app=app,
                         optimized=fspec.optimized)
        self._wire_flow_paths(fr)
        self._handlers[fspec.dst][flow] = receiver.on_data
        self._handlers[fspec.src][flow.reversed()] = sender.on_ack
        self._register_rtc(fr, FeedbackKind.OUT_OF_BAND)
        self._network_rtt[flow] = RttRecorder()
        self._rtc.append(fr)
        self.video_apps.append((sender, receiver, app))

    def _build_quic_flow(self, fspec: FlowSpec, index: int) -> None:
        """Video over the QUIC-style transport (Table 2's QUIC family).

        Fully encrypted out-of-band feedback: Zhuge must operate on the
        five-tuple and ACK timing alone — which is exactly how the
        OUT_OF_BAND registration behaves.
        """
        from repro.app.quic_video import QuicVideoApp
        from repro.transport.quic import QuicReceiver, QuicSender
        spec = self.spec
        cca_name = fspec.cca or spec.cca
        cca = make_window_cca(cca_name if cca_name != "gcc" else "copa",
                              mss=1200)
        flow = self._flow_tuple(fspec, "quic", 5000, 6000, index)
        sender = QuicSender(self.sim, flow, cca, mss=1200)
        receiver = QuicReceiver(self.sim, flow)
        encoder = VideoEncoder(fps=spec.fps,
                               rng=self.rng.fork(self._enc_label(fspec,
                                                                 index)))
        app = QuicVideoApp(self.sim, sender, receiver, encoder,
                           max_rate_bps=spec.max_bps)
        fr = FlowRuntime(spec=fspec, flow=flow, protocol="quic",
                         sender=sender, receiver=receiver, app=app,
                         optimized=fspec.optimized)
        self._wire_flow_paths(fr)
        self._handlers[fspec.dst][flow] = receiver.on_data
        self._handlers[fspec.src][flow.reversed()] = sender.on_ack
        self._register_rtc(fr, FeedbackKind.OUT_OF_BAND)
        self._network_rtt[flow] = RttRecorder()
        self._rtc.append(fr)
        self.video_apps.append((sender, receiver, app))

    def _build_competitor(self, fspec: FlowSpec, index: int) -> None:
        flow = self._flow_tuple(fspec, "tcp", 7000, 8000, index)
        sender = TcpSender(self.sim, flow,
                           make_window_cca(fspec.cca or "cubic"))
        receiver = TcpReceiver(self.sim, flow)
        fr = FlowRuntime(spec=fspec, flow=flow, protocol="tcp",
                         sender=sender, receiver=receiver, app=None)
        self._wire_flow_paths(fr)
        self._handlers[fspec.dst][flow] = receiver.on_data
        self._handlers[fspec.src][flow.reversed()] = sender.on_ack
        if fspec.period is not None:
            app = PeriodicBulkApp(self.sim, sender, period=fspec.period)
        else:
            app = BulkSenderApp(self.sim, sender)
        fr.app = app
        self._competitors.append(fr)
        self.bulk_apps.append((sender, receiver, app))

    # -- legacy accessors (tests and drivers reach into these) ---------------

    @property
    def zhuge(self) -> Optional[ZhugeAP]:
        for node in self.topology.nodes:
            ap_rt = self.aps.get(node.name)
            if ap_rt is not None and ap_rt.zhuge is not None:
                return ap_rt.zhuge
        return None

    @property
    def ap(self):
        for node in self.topology.nodes:
            ap_rt = self.aps.get(node.name)
            if ap_rt is not None:
                return ap_rt.ap
        return None

    def _first_ap_out_edge(self) -> Optional[EdgeRuntime]:
        for er in self.edges.values():
            if er.spec.wireless and er.spec.src in self.aps and er.enabled:
                return er
        return None

    def _first_ap_in_edge(self) -> Optional[EdgeRuntime]:
        for er in self.edges.values():
            if er.spec.wireless and er.spec.dst in self.aps and er.enabled:
                return er
        return None

    @property
    def downlink_queue(self):
        er = self._first_ap_out_edge()
        return er.queue if er is not None else None

    @property
    def uplink_queue(self):
        er = self._first_ap_in_edge()
        return er.queue if er is not None else None

    @property
    def downlink_wireless(self):
        er = self._first_ap_out_edge()
        return er.link if er is not None else None

    @property
    def uplink_wireless(self):
        er = self._first_ap_in_edge()
        return er.link if er is not None else None

    @property
    def channel(self):
        er = self._first_ap_out_edge()
        return er.channel if er is not None else None

    @property
    def uplink_channel(self):
        er = self._first_ap_in_edge()
        return er.channel if er is not None else None

    def handlers(self, node: str) -> dict:
        """The endpoint dispatch table of ``node`` (mutable — drivers
        wrap entries for custom endpoint behaviour)."""
        return self._handlers[node]

    @property
    def _client_handlers(self) -> "_NodeHandlerView":
        # Legacy compat: the old builder kept flat flow->handler dicts;
        # the per-node tables route by the five-tuple's dst node, which
        # is exactly where the handler lives.
        return _NodeHandlerView(self)

    _server_handlers = _client_handlers

    # -- roaming (real inter-AP handoff) -------------------------------------

    def _attachment_edges(self, client: str) -> list[EdgeRuntime]:
        return [er for er in self.edges.values()
                if er.spec.wireless
                and client in (er.spec.src, er.spec.dst)]

    def begin_roam(self, client: str) -> int:
        """Detach ``client``: block its attachment edges, flush queues.

        Returns the number of flushed packets. Data already past the
        WAN keeps arriving at the old AP and is dropped there (counted
        in :attr:`undeliverable` once routes move).
        """
        flushed = 0
        for er in self._attachment_edges(client):
            if not er.enabled:
                continue
            er.link.block()
            if er.queue is not None:
                flushed += er.queue.drop_all("roam")
        return flushed

    def complete_roam(self, client: str, new_ap: str) -> None:
        """Re-attach ``client`` on ``new_ap``'s wireless edges.

        The old edges stay down; the new AP's Fortune Teller restarts
        from scratch (its windows are empty or stale), but the
        out-of-band release floor carries over from the old AP so
        feedback release times stay monotone across the handoff.
        Downlink frames the WAN delivered to the old AP during the
        blackout are forwarded to the new AP over the distribution
        system (802.11r-style buffered-frame forwarding) instead of
        being stranded in a dead queue.
        """
        if new_ap not in self.aps:
            raise ValueError(f"roam target {new_ap!r} is not an AP")
        old_aps: set[str] = set()
        handover: list[Packet] = []
        for er in self._attachment_edges(client):
            attached_to = (er.spec.src if er.spec.src in self.aps
                           else er.spec.dst)
            if attached_to == new_ap:
                er.enabled = True
                er.link.unblock()
            elif er.enabled:
                er.enabled = False
                er.link.block()
                old_aps.add(attached_to)
                if er.spec.src == attached_to and er.queue is not None:
                    packet = er.queue.dequeue(self.sim.now)
                    while packet is not None:
                        handover.append(packet)
                        packet = er.queue.dequeue(self.sim.now)
        new_rt = self.aps[new_ap]
        for fr in self._rtc + self._competitors:
            if client not in (fr.spec.src, fr.spec.dst):
                continue
            old_rt = self.aps.get(fr.serving_ap) if fr.serving_ap else None
            floor = 0.0
            if (old_rt is not None and old_rt.zhuge is not None
                    and fr.kind is not None):
                floor = old_rt.zhuge.release_floor(fr.flow)
            self._wire_flow_paths(fr)
            if (fr.serving_ap == new_ap and new_rt.zhuge is not None
                    and fr.optimized and fr.kind is not None):
                if new_rt.zhuge.registered_kind(fr.flow) is None:
                    new_rt.zhuge.register_flow(fr.flow, fr.kind)
                new_rt.zhuge.adopt_release_floor(fr.flow, floor)
        if new_rt.zhuge is not None:
            # Fresh association: whatever the new AP learned before (or
            # never learned) is not this client — restart the Teller.
            new_rt.zhuge.reset_state()
        for packet in handover:
            new_rt.ap.on_downlink(packet)

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
        for node in self.topology.nodes:
            ap_rt = self.aps.get(node.name)
            if ap_rt is not None and ap_rt.zhuge is not None:
                ap_rt.zhuge.enable_trace(bus)
                if trace_config.audit:
                    ap_rt.zhuge.join_predictions(record=True)
        for sender, _receiver, _app in self.video_apps:
            cca = getattr(sender, "cca", None)
            if cca is not None and hasattr(cca, "enable_trace"):
                cca.enable_trace(
                    bus, f"cca/{sender.flow.src_port}->{sender.flow.dst_port}")
        self.trace_session = session

    # -- fault injection (repro.faults) --------------------------------------

    def _attach_faults(self, plan) -> None:
        """Arm the plan's faults against the built topology."""
        from repro.faults.injector import FaultInjector
        if plan.watchdog_enabled:
            for node in self.topology.nodes:
                ap_rt = self.aps.get(node.name)
                if ap_rt is not None and ap_rt.zhuge is not None:
                    ap_rt.zhuge.enable_watchdog(plan.watchdog)
        down = self._first_ap_out_edge()
        up = self._first_ap_in_edge()
        self.fault_injector = FaultInjector(
            self.sim, plan,
            downlink=down.link if down is not None else None,
            uplink=up.link if up is not None else None,
            down_channel=down.channel if down is not None else None,
            up_channel=up.channel if up is not None else None,
            downlink_queue=down.queue if down is not None else None,
            uplink_queue=up.queue if up is not None else None,
            zhuge=self.zhuge,
            trace=self.trace_session.bus if self.trace_session else None,
            edges=self.edges,
            zhuge_by_node={name: rt.zhuge for name, rt in self.aps.items()},
            mover=self)

    # -- adaptive control (repro.control) ------------------------------------

    def _attach_control(self, control) -> None:
        """Attach per-AP controllers and (optionally) fleet steering.

        Runs after fault attachment on purpose: a watchdog armed by the
        fault plan is adopted by the controller (which takes over its
        demote/promote authority); APs without one get the controller
        config's own watchdog.
        """
        from repro.control.controller import ZhugeController
        from repro.control.steering import SteeringDaemon
        bus = self.trace_session.bus if self.trace_session else None
        if control.controller is not None:
            for node in self.topology.nodes:
                ap_rt = self.aps.get(node.name)
                if ap_rt is None or ap_rt.zhuge is None:
                    continue
                self.controllers[node.name] = ZhugeController(
                    self.sim, ap_rt.zhuge, control.controller,
                    edge=self._ap_downlink_edge(node.name),
                    trace=bus, track=f"{node.name}/control")
        if control.steering is not None:
            self.steering = SteeringDaemon(
                self.sim, self, self.controllers, control.steering,
                trace=bus)

    # -- run -----------------------------------------------------------------

    def run(self) -> ScenarioResult:
        spec = self.spec
        try:
            self.sim.run(until=spec.duration)
        except Exception as exc:
            if self.trace_session is not None:
                self.trace_session.dump_on_error(exc)
            raise

        flows = []
        for fr in self._rtc:
            network = self._network_rtt[fr.flow]
            rtt = network.since(spec.warmup)
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
        for node in self.topology.nodes:
            ap_rt = self.aps.get(node.name)
            if ap_rt is None:
                continue
            ap_packets += ap_rt.ap.packets_processed
            if ap_rt.zhuge is not None:
                ap_rt.zhuge.stop()
                join = ap_rt.zhuge.predictions
                if join is not None:
                    predicted.extend(join.predicted)
                    actual.extend(join.actual)
        for _, _receiver, app in self.video_apps:
            app.stop()

        if self.trace_session is not None:
            self.trace_session.audit(zip(predicted, actual))
            self.trace_session.export()
        if not spec.record_predictions:
            predicted, actual = column(), column()

        fault_log = []
        if self.fault_injector is not None:
            fault_log = list(self.fault_injector.log)
        watchdog_transitions = []
        zhuge = self.zhuge
        if zhuge is not None and zhuge.watchdog is not None:
            watchdog_transitions = list(zhuge.watchdog.transitions)

        control_transitions = []
        for name, controller in self.controllers.items():
            controller.stop()
            control_transitions.extend(
                (t, name, state, reason)
                for t, state, reason in controller.transitions)
        control_transitions.sort(key=lambda entry: (entry[0], entry[1]))
        steering_moves = []
        if self.steering is not None:
            self.steering.stop()
            steering_moves = list(self.steering.moves)

        return ScenarioResult(config=spec, flows=flows,
                              predicted=predicted, actual=actual,
                              events_processed=self.sim.events_processed,
                              packets_processed=self.sim.packets_processed,
                              ap_packets=ap_packets,
                              trace_session=self.trace_session,
                              fault_log=fault_log,
                              watchdog_transitions=watchdog_transitions,
                              control_transitions=control_transitions,
                              steering_moves=steering_moves)


class _NodeHandlerView:
    """Flat flow -> handler mapping over the per-node dispatch tables.

    Packets of a five-tuple are handled at the node named by its ``dst``
    field, so a flat view only needs that key to find the right table.
    Kept for callers written against the legacy ``_client_handlers`` /
    ``_server_handlers`` dicts (e.g. test spies that wrap a receiver).
    """

    def __init__(self, builder: TopologyBuilder):
        self._builder = builder

    def __getitem__(self, flow: FiveTuple):
        return self._builder._handlers[flow.dst][flow]

    def __setitem__(self, flow: FiveTuple, handler) -> None:
        self._builder._handlers[flow.dst][flow] = handler

    def __contains__(self, flow: FiveTuple) -> bool:
        return flow in self._builder._handlers.get(flow.dst, {})

    def get(self, flow: FiveTuple, default=None):
        return self._builder._handlers.get(flow.dst, {}).get(flow, default)


class _BulkFlowAdapter:
    """Presents the video-app interface over a bulk TCP sender."""

    def __init__(self, sim, sender):
        self._bulk = BulkSenderApp(sim, sender)
        self.frame_recorder = FrameRecorder()

    def stop(self) -> None:
        self._bulk.stop()


#: Payload bytes per received packet, by protocol. The only difference
#: between the historical ``_rtp_goodput``/``_quic_goodput``/
#: ``_tcp_goodput`` helpers was this constant.
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
