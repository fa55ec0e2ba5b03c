"""Packet forwarding over a built topology: routes, receivers, roaming.

One :class:`Forwarding` object owns every hop of a live graph that
:class:`~repro.topology.builder.TopologyBuilder` constructed: the
per-node routing tables, the endpoint handler tables, the receiver
installed on every link, and the route recomputation that makes an
inter-AP handoff a first-class operation.

Packets are steered by a per-flow routing table computed with BFS over
*enabled* edges: each AP's forward callback looks up
``(node, packet.flow) -> next edge``. Roaming re-runs the route
computation after flipping edge ``enabled`` flags (see
:meth:`Forwarding.begin_roam` / :meth:`Forwarding.complete_roam`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.feedback_updater import FeedbackKind
from repro.core.zhuge_ap import ZhugeAP
from repro.metrics.recorder import RttRecorder
from repro.net.packet import FiveTuple, Packet, PacketKind
from repro.topology.spec import EdgeSpec, FlowSpec, NodeSpec
from repro.wireless.channel import WirelessChannel


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
    """One live AP: its mode's AP object (``zhuge`` repeats it when the
    mode is Zhuge)."""

    node: NodeSpec
    ap: object
    zhuge: Optional[ZhugeAP] = None


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
    #: (where :meth:`Forwarding._attach` registers it); updated on roam.
    serving_ap: Optional[str] = None
    #: How Zhuge feeds the sender back (the RTC protocol's stack kind).
    kind: Optional[FeedbackKind] = None


class Forwarding:
    """Routes and per-hop receivers of one live topology.

    ``edges`` and ``aps`` are the builder's tables (edge name ->
    :class:`EdgeRuntime`, AP node name -> :class:`ApRuntime`, both in
    declaration order); forwarding reads them and flips edge
    ``enabled`` flags on roam, but never adds or removes entries.
    """

    def __init__(self, sim, nodes, edges: dict, aps: dict):
        self.sim = sim
        self.edges: dict[str, EdgeRuntime] = edges
        self.aps: dict[str, ApRuntime] = aps
        #: node -> flow five-tuple -> next-hop edge (the routing table).
        self._routes: dict[str, dict[FiveTuple, EdgeRuntime]] = {
            node.name: {} for node in nodes}
        #: node -> flow five-tuple -> endpoint callback.
        self._handlers: dict[str, dict[FiveTuple, object]] = {
            node.name: {} for node in nodes}
        #: RTC flow -> network-layer RTT measured at the client side.
        self.network_rtt: dict[FiveTuple, RttRecorder] = {}
        self._return_delay: dict[FiveTuple, float] = {}
        #: Live flows by role, in declaration order.
        self.rtc: list[FlowRuntime] = []
        self.competitors: list[FlowRuntime] = []
        #: Packets that reached a node with no route for their flow
        #: (data still in flight toward an AP the client just left).
        self.undeliverable = 0

    # -- queries -------------------------------------------------------------

    def handlers(self, node: str) -> dict:
        """The endpoint dispatch table of ``node`` (mutable — drivers
        wrap entries for custom endpoint behaviour)."""
        return self._handlers[node]

    def ap_edge(self, direction: str) -> Optional[EdgeRuntime]:
        """The first enabled wireless edge out of (``"down"``) or into
        (``"up"``) an AP, in edge declaration order: the single-AP
        chain's two wireless hops."""
        for er in self.edges.values():
            end = er.spec.src if direction == "down" else er.spec.dst
            if er.spec.wireless and end in self.aps and er.enabled:
                return er
        return None

    def attached_aps(self, client: str) -> list[str]:
        """APs ``client`` has a wireless edge with, enabled or not, in
        edge declaration order."""
        seen = []
        for er in self._attachment_edges(client):
            ap = er.spec.src if er.spec.src in self.aps else er.spec.dst
            if ap not in seen:
                seen.append(ap)
        return seen

    def flows_of(self, client: str) -> list[FlowRuntime]:
        """Flows with an endpoint at ``client``: RTC flows first."""
        return [fr for fr in self.rtc + self.competitors
                if client in (fr.spec.src, fr.spec.dst)]

    # -- receivers -----------------------------------------------------------

    def wire(self) -> None:
        """Install every AP's next-hop callback and every edge's
        receiver: an edge into an AP delivers straight to the AP object
        (``on_ack_batch`` from the client side, ``on_downlink`` from the
        WAN)."""
        for name, ap_rt in self.aps.items():
            ap_rt.ap.forward_downlink = ap_rt.ap.forward_uplink = \
                self._make_forward(name)
        for er in self.edges.values():
            if er.spec.dst in self.aps:
                ap = self.aps[er.spec.dst].ap
                if er.spec.wireless:
                    er.link.deliver_batch = ap.on_ack_batch
                else:
                    er.link.deliver = ap.on_downlink
            else:
                body = er.link.deliver_batch = self._make_terminal_in(er)
                if not er.spec.wireless:
                    # For callers that hand over one packet at a time
                    # (``WiredLink`` prefers the list body).
                    er.link.deliver = lambda packet, body=body: body([packet])

    def _make_terminal_in(self, er: EdgeRuntime):
        """Delivery into a client/server node: the serving AP's
        delivery hook, bookkeeping, endpoint."""
        src_ap = self.aps.get(er.spec.src) if er.spec.wireless else None
        node = er.spec.dst

        def deliver(packets: list) -> None:
            sim = self.sim
            handlers = self._handlers[node]
            network_rtt = self.network_rtt
            return_delay = self._return_delay
            on_delivery = (src_ap.ap.on_wireless_delivery
                           if src_ap is not None else None)
            for packet in packets:
                if on_delivery is not None:
                    on_delivery(packet)
                recorder = network_rtt.get(packet.flow)
                if recorder is not None and packet.kind == PacketKind.DATA:
                    now = sim.now
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

    def add_flow(self, fr: FlowRuntime, on_feedback) -> None:
        """Route ``fr``, install its endpoints (the receiver's
        ``on_data`` at the destination, ``on_feedback`` at the source)
        and attach it to its serving AP. RTC flows also get a
        network-RTT recorder."""
        self._wire_flow_paths(fr)
        self._handlers[fr.spec.dst][fr.flow] = fr.receiver.on_data
        self._handlers[fr.spec.src][fr.flow.reversed()] = on_feedback
        if fr.spec.role == "rtc":
            self.network_rtt[fr.flow] = RttRecorder()
            self.rtc.append(fr)
        else:
            self.competitors.append(fr)
        self._attach(fr)

    def _attach(self, fr: FlowRuntime, floor: float = 0.0) -> None:
        """Put an optimized flow on its serving AP's IP list (§7.1).

        A Zhuge AP registers the flow with its stack's feedback kind
        (once) and raises its release floor to ``floor``, the one the
        flow's previous AP held; a FastAck AP proxies a TCP flow (an
        existing proxy stays). Every other flow and AP pass through.
        """
        ap_rt = self.aps.get(fr.serving_ap)
        if ap_rt is None or not fr.optimized:
            return
        zhuge = ap_rt.zhuge
        if zhuge is not None:
            if fr.flow not in zhuge.updaters:
                zhuge.register_flow(fr.flow, fr.kind)
            zhuge.adopt_release_floor(fr.flow, floor)
        elif ap_rt.node.ap_mode == "fastack" and fr.protocol == "tcp":
            ap_rt.ap.register_flow(fr.flow)

    def _out_edges(self, node: str) -> list[EdgeRuntime]:
        return [er for er in self.edges.values() if er.spec.src == node]

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
        """Re-attach ``client`` on ``new_ap``'s wireless edges (which
        may be the AP it left).

        The old edges stay down; each of the client's flows re-routes
        and attaches to its new serving AP by the build-time rule
        (:meth:`_attach`), carrying the out-of-band release floor over
        from the old AP so feedback release times stay monotone across
        the handoff. The new AP's Fortune Teller restarts from scratch
        (its windows are empty or stale).
        Downlink frames the WAN delivered to the old AP during the
        blackout are forwarded to the new AP over the distribution
        system (802.11r-style buffered-frame forwarding) instead of
        being stranded in a dead queue.
        """
        if new_ap not in self.aps:
            raise ValueError(f"roam target {new_ap!r} is not an AP")
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
                if er.spec.src == attached_to and er.queue is not None:
                    packet = er.queue.dequeue(self.sim.now)
                    while packet is not None:
                        handover.append(packet)
                        packet = er.queue.dequeue(self.sim.now)
        for fr in self.flows_of(client):
            old_rt = self.aps.get(fr.serving_ap)
            floor = (old_rt.zhuge.release_floor(fr.flow)
                     if old_rt is not None and old_rt.zhuge is not None
                     else 0.0)
            self._wire_flow_paths(fr)
            self._attach(fr, floor)
        new_rt = self.aps[new_ap]
        if new_rt.zhuge is not None:
            # Fresh association: whatever the new AP learned before (or
            # never learned) is not this client — restart the Teller.
            new_rt.zhuge.reset_state()
        for packet in handover:
            new_rt.ap.on_downlink(packet)
