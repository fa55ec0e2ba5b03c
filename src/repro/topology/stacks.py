"""Per-protocol endpoint stacks of an RTC flow.

:data:`STACKS` maps each RTC protocol to how
:class:`~repro.topology.builder.TopologyBuilder` builds its endpoints:
the congestion controller, the sender and receiver, the video app, the
feedback kind Zhuge registers, and the handler of packets arriving
back at the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.app.bulk import BulkSenderApp
from repro.app.video import QuicVideoApp, RtpVideoApp, TcpVideoApp
from repro.cca import RATE_CCAS, WINDOW_CCAS, make_rate_cca, make_window_cca
from repro.core.feedback_updater import FeedbackKind
from repro.metrics.recorder import FrameRecorder
from repro.net.packet import Packet, PacketKind
from repro.transport.quic import QuicReceiver, QuicSender
from repro.transport.rtp import RtpReceiver, RtpSender
from repro.transport.tcp import TcpReceiver, TcpSender


class BulkFlowAdapter:
    """Presents the video-app interface over a bulk TCP sender."""

    def __init__(self, sim, sender):
        self._bulk = BulkSenderApp(sim, sender)
        self.frame_recorder = FrameRecorder()

    def stop(self) -> None:
        self._bulk.stop()


def rtcp_dispatch(sender):
    """RTCP back at an RTP sender: NACKs to ``on_nack``, the rest
    (transport-wide feedback) to ``on_feedback``."""
    def dispatch(packet: Packet) -> None:
        if packet.kind == PacketKind.RTCP_OTHER:
            sender.on_nack(packet)
        else:
            sender.on_feedback(packet)
    return dispatch


@dataclass(frozen=True)
class Stack:
    """How one RTC protocol's endpoints are built, in build order."""

    cca: Callable        # (cca name, spec) -> congestion controller
    sender: Callable     # (sim, flow, cca) -> sender
    receiver: Callable   # (sim, flow) -> receiver
    app: Callable        # (sim, sender, receiver, encoder, spec) -> app
    kind: FeedbackKind   # how Zhuge feeds the sender back
    feedback: Callable   # sender -> handler of packets at the source


#: The ``cca`` names each RTC protocol accepts, each mapped to the
#: controller it runs: rtp runs ``copa`` as gcc and quic runs ``gcc`` as
#: copa, so one scheme name sweeps every protocol.
CCA_RUNS = {
    "rtp": {**{name: name for name in RATE_CCAS}, "copa": "gcc"},
    "tcp": {name: name for name in WINDOW_CCAS},
    "quic": {**{name: name for name in WINDOW_CCAS}, "gcc": "copa"},
}


STACKS = {
    "rtp": Stack(
        cca=lambda name, spec: make_rate_cca(
            CCA_RUNS["rtp"][name],
            initial_bps=spec.initial_bps, max_bps=spec.max_bps),
        sender=RtpSender, receiver=RtpReceiver,
        app=lambda sim, sender, receiver, encoder, spec: RtpVideoApp(
            sim, sender, receiver, encoder, paced=spec.paced_sender),
        kind=FeedbackKind.IN_BAND, feedback=rtcp_dispatch),
    "tcp": Stack(
        cca=lambda name, spec: make_window_cca(CCA_RUNS["tcp"][name]),
        sender=TcpSender, receiver=TcpReceiver,
        app=lambda sim, sender, receiver, encoder, spec: TcpVideoApp(
            sim, sender, receiver, encoder, max_rate_bps=spec.max_bps),
        kind=FeedbackKind.OUT_OF_BAND, feedback=lambda sender: sender.on_ack),
    # Table 2's QUIC family: fully encrypted out-of-band feedback, so
    # Zhuge works on the five-tuple and ACK timing alone.
    "quic": Stack(
        cca=lambda name, spec: make_window_cca(CCA_RUNS["quic"][name],
                                               mss=1200),
        sender=lambda sim, flow, cca: QuicSender(sim, flow, cca, mss=1200),
        receiver=QuicReceiver,
        app=lambda sim, sender, receiver, encoder, spec: QuicVideoApp(
            sim, sender, receiver, encoder, max_rate_bps=spec.max_bps),
        kind=FeedbackKind.OUT_OF_BAND, feedback=lambda sender: sender.on_ack),
}
