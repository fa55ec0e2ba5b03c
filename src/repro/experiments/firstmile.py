"""First-mile Zhuge (§6 discussion, implemented as an extension).

For peer-to-peer RTC (video conferencing upload), the wireless hop is
the *first* mile: the queue builds in the client's own network stack.
The paper notes Zhuge's mechanisms apply there too, by integrating with
the sender's stack instead of an AP.

Topology (:func:`repro.topology.spec.first_mile_topology` — a genuine
two-AP graph since the :mod:`repro.topology` layer)::

    station[encoder + CCA (+ local fortune teller)]
        --uplink wireless (bottleneck)--> AP-A --WAN--> AP-B
        --downlink wireless--> peer[receiver]
    station <---- AP-A wireless <-- WAN <-- AP-B wireless <---- peer

With ``client_zhuge=True``, a :class:`LocalFortuneLoop` watches the
station's own uplink queue and synthesizes TWCC feedback from predicted
delays directly into the CCA — the shortest control loop possible (zero
network traversal). The baseline waits for the peer's real TWCC, which
now crosses two wireless segments and the WAN on the way back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.campaign.spec import ScenarioSpec
from repro.cca.base import FeedbackPacketReport
from repro.core.fortune_teller import FortuneTeller
from repro.metrics.recorder import FrameRecorder, RttRecorder
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator, Timer
from repro.topology.builder import TopologyBuilder
from repro.topology.presets import first_mile_topology
from repro.transport.rtp import RtpSender


@dataclass
class FirstMileResult:
    config: ScenarioSpec
    rtt: RttRecorder = field(default_factory=RttRecorder)
    frames: FrameRecorder = field(default_factory=FrameRecorder)
    mean_bitrate_bps: float = 0.0


class LocalFortuneLoop:
    """Client-side fortune feedback: predictions -> CCA, no network.

    Periodically converts the Fortune Teller's per-packet predicted
    delays for recently sent packets into synthetic feedback reports and
    feeds them to the sender's CCA. The real server feedback is
    suppressed for rate control (it still drives loss recovery).
    """

    def __init__(self, sim: Simulator, sender: RtpSender,
                 fortune_teller: FortuneTeller,
                 interval: float = 0.040):
        self.sim = sim
        self.sender = sender
        self.fortune_teller = fortune_teller
        self._pending: list[tuple[int, float, int, float]] = []
        # (twcc_seq, send_time, size, predicted_arrival)
        self.synthetic_feedbacks = 0
        self._timer = Timer(sim, interval, self._tick)

    def on_packet_sent(self, packet: Packet) -> None:
        prediction = self.fortune_teller.predict()
        self._pending.append((packet.headers["twcc_seq"], self.sim.now,
                              packet.size, self.sim.now + prediction.total))

    def _tick(self) -> None:
        if not self._pending:
            return
        reports = [FeedbackPacketReport(seq, size, sent, predicted)
                   for seq, sent, size, predicted in self._pending]
        self._pending.clear()
        self.synthetic_feedbacks += 1
        self.sender.cca.on_feedback(self.sim.now, reports)
        self.sender.rate_recorder.record(self.sim.now,
                                         self.sender.cca.target_bps)

    def stop(self) -> None:
        self._timer.stop()


def run_first_mile(spec: ScenarioSpec,
                   client_zhuge: bool = False) -> FirstMileResult:
    """Simulate uplink video with or without client-side Zhuge.

    Runs ``spec`` (its trace drives the station's uplink) on
    :func:`first_mile_topology` — station, two APs, peer — through the
    generic :class:`TopologyBuilder`, then grafts the client-side
    fortune loop onto the station's endpoint: predictions from the
    station's own uplink queue replace the peer's TWCC for rate control
    (real NACK-driven loss recovery stays on).
    """
    spec = replace(spec, topology=first_mile_topology(
        wan_delay=spec.wan_delay, duration=spec.duration))
    builder = TopologyBuilder(spec)
    fr = builder.forwarding.rtc[0]
    sender = fr.sender

    local_loop = None
    if client_zhuge:
        teller = FortuneTeller(builder.sim,
                               builder.edges["a-up"].queue)
        local_loop = LocalFortuneLoop(builder.sim, sender, teller)
        transmit = sender.transmit

        def client_transmit(packet: Packet) -> None:
            if packet.kind == PacketKind.DATA:
                local_loop.on_packet_sent(packet)
            transmit(packet)

        sender.transmit = client_transmit

        def client_feedback(packet: Packet) -> None:
            if packet.kind == PacketKind.RTCP_OTHER:
                sender.on_nack(packet)
            # Peer TWCC is ignored for rate control: the local
            # predictions already covered those packets.

        station = builder.forwarding.handlers("station")
        station[fr.flow.reversed()] = client_feedback

    scenario_result = builder.run()
    flow = scenario_result.flows[0]
    if local_loop is not None:
        local_loop.stop()
    return FirstMileResult(config=spec, rtt=flow.rtt,
                           frames=flow.frames,
                           mean_bitrate_bps=flow.mean_bitrate_bps)
