"""CPU-overhead driver (Fig. 21).

The paper measures the CPU utilization of two decade-old OpenWrt APs
running 1-5 concurrent Zhuge flows. We have no router hardware, so we
measure the wall-clock per-packet cost of the Zhuge AP datapath and
scale it to a router-class CPU budget: utilization
= (per-packet cost x packet rate x flows) / cpu_scale, where
``cpu_scale`` expresses how much slower a 2011 MIPS router core is than
this machine (the absolute numbers are indicative; the *shape* — linear
growth in concurrent flows, headroom at 5 flows — is the claim).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from repro.core.feedback_updater import FeedbackKind
from repro.core.zhuge_ap import ZhugeAP
from repro.metrics.hotpath import snapshot_fortune_teller, snapshot_updater
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom

# Packet rate of one 2 Mbps RTC flow (1200 B packets) + its ACK stream.
FLOW_PPS = 210
# cpu_scale = (router-core slowdown vs this machine) / (C-vs-Python
# speedup of the datapath). Both factors are order-of-magnitude
# estimates chosen with margin so the preserved claims — utilization
# grows linearly with flows and five flows fit the budget — hold on any
# reasonable host. Absolute levels are indicative only (DESIGN.md).
ROUTER_MODELS = (
    ("Netgear WNDR3800 (680 MHz MIPS)", 5.0),
    ("TP-Link TL-WDR4900 (800 MHz PPC)", 3.75),
)
#: Fig. 21 projects from the fastest of this many spins: a single spin
#: reads anywhere in 8.5-13.9 us/packet across processes on one host.
SPINS = 5


@dataclass
class OverheadRow:
    router: str
    flows: int
    per_packet_us: float
    projected_cpu_utilization: float


def datapath(flows: int):
    """``(sim, queue, ap, flow_list)``: one AP with ``flows`` out-of-band
    flows on a 4 MB drop-tail queue for :func:`spin`, which holds one
    packet at most."""
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=4_000_000)
    ap = ZhugeAP(sim, queue, rng=DeterministicRandom(1))
    flow_list = [FiveTuple("server", "client", 1000 + i, 2000 + i)
                 for i in range(flows)]
    for flow in flow_list:
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
    return sim, queue, ap, flow_list


def spin(sim, queue, ap, flows, first, last, downlink=None, uplink=None):
    """Drive packets ``[first, last)``, 5 ms apart and round-robin over
    ``flows``, through the AP by hand (the clock is stepped directly):
    enqueue, ``downlink``, a txop drain at +2 ms, its ACK to ``uplink``
    at +4 ms. The one hand-driven AP datapath: Fig. 21 times it and
    ``tests/test_cost_bounds.py`` counts its bytecodes."""
    downlink = downlink or ap.on_downlink
    uplink = uplink or ap.on_uplink
    acks = [flow.reversed() for flow in flows]
    count = len(flows)
    for i in range(first, last):
        t = i * 0.005
        sim.now = t
        packet = Packet(flows[i % count], 1200, seq=i)
        queue.enqueue(packet, t)
        downlink(packet)
        queue.dequeue_burst(t + 0.002, 8, 1 << 20)
        sim.now = t + 0.004
        uplink(Packet(acks[i % count], ACK_SIZE, PacketKind.ACK, ack=i))


def timed_spin(flows: int, packets: int):
    """``(ap, flow_list, [on_downlink_s, on_uplink_s])``: :func:`spin`
    with each entry point in a ``perf_counter`` bracket."""
    sim, queue, ap, flow_list = datapath(flows)
    seconds = [0.0, 0.0]

    def bracket(entry, stage):
        def timed(packet):
            start = time.perf_counter()
            entry(packet)
            seconds[stage] += time.perf_counter() - start
        return timed

    spin(sim, queue, ap, flow_list, 0, packets,
         bracket(ap.on_downlink, 0), bracket(ap.on_uplink, 1))
    return ap, flow_list, seconds


def measure_per_packet_cost(packets: int = 20_000) -> float:
    """Wall-clock seconds per packet through the full Zhuge datapath,
    timed with the cyclic collector paused (the ``timeit`` convention)."""
    sim, queue, ap, flows = datapath(1)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        spin(sim, queue, ap, flows, 0, packets)
        return (time.perf_counter() - start) / packets
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_component_costs(packets: int = 20_000) -> list[dict]:
    """Per-stage wall-clock cost of the datapath, with hot-path counters.

    Runs the same workload as :func:`measure_per_packet_cost` but times
    the AP's two entry points separately — ``on_downlink`` (Fortune
    Teller prediction + delta banking) and ``on_uplink`` (distribution
    sampling + token spending) — and attaches each component's
    :mod:`repro.metrics.hotpath` counter snapshot, so Fig. 21 can report
    where the per-packet budget actually goes.
    """
    ap, flows, seconds = timed_spin(1, packets)
    stats = (snapshot_fortune_teller(ap.fortune_teller),
             snapshot_updater(ap.updaters[flows[0]]))
    return [{"stage": stage,
             "seconds_per_call": spent / packets,
             "ops_per_sec": packets / spent if spent > 0 else float("inf"),
             "stats": snapshot.as_dict()}
            for stage, spent, snapshot in zip(("on_downlink", "on_uplink"),
                                              seconds, stats)]


def fig21_cpu_overhead(flow_counts=(1, 2, 3, 4, 5),
                       packets: int = 20_000) -> list[OverheadRow]:
    per_packet = min(measure_per_packet_cost(packets) for _ in range(SPINS))
    rows = []
    for router, cpu_scale in ROUTER_MODELS:
        for flows in flow_counts:
            busy = per_packet * cpu_scale * FLOW_PPS * flows
            rows.append(OverheadRow(
                router=router, flows=flows,
                per_packet_us=per_packet * 1e6,
                projected_cpu_utilization=min(busy, 1.0),
            ))
    return rows
