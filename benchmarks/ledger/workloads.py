"""The four ledger workloads.

Each workload is one fixed piece of simulated traffic, driven only
through the simulator's public entry points.  A workload object lives
for one round in one child process (see ``cell.py``):

* ``setup()``   — inputs made from the seed (untimed; feeds ``setup_s``),
* ``run()``     — the timed section: build + run + summarise,
* ``outcome()`` — packets/events, simulated statistics, digest,
                  invariant checks and public-attribute counters.

What the seed drives: every stochastic stream of the simulated system
(``ScenarioSpec.seed``, the AP's RNG, the flow interleaving of the
synthetic sender).  What it does not drive: the *shape* of the
workload — the bandwidth-trace realisation and the city layout are
pinned by ``SHAPE_SEED``.  Letting the seed redraw those moves the
amount of simulated work by 6-40 % and P99 delay by up to 6x between
seeds, which would bury any host-cost change the ledger is meant to
resolve.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from array import array
from dataclasses import replace
from pathlib import Path

from repro.campaign import (ResultCache, ScenarioSpec, ScenarioSummary,
                            TraceSpec, run_campaign)
from repro.city import CityGenSpec, FleetAccumulator, partition_topology
from repro.core.feedback_updater import FeedbackKind
from repro.core.zhuge_ap import ZhugeAP
from repro.experiments.drivers.city import city_specs
from repro.metrics.stats import percentile
from repro.net.link import WiredLink
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.builder import TopologyBuilder
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink

#: Trace realisation and city layout, the same for every ``--seed``.
SHAPE_SEED = 1

cpu = time.process_time


def offered(queue) -> int:
    """Packets ever handed to ``queue``.

    ``QueueStats.enqueued`` counts admitted packets only; a tail-drop is
    counted in ``dropped`` without ever being enqueued.
    """
    stats = queue.stats
    return stats.enqueued + stats.drop_reasons.get("tail-overflow", 0)


def queue_conserves(queue) -> bool:
    """Every packet offered to ``queue`` left it, was dropped, or is in it."""
    stats = queue.stats
    return offered(queue) == (stats.dequeued + stats.dropped
                              + queue.packet_length)


def queue_counters(queue, wifi) -> dict:
    stats = queue.stats
    return {
        "net.queue.enqueued": stats.enqueued,
        "net.queue.dropped": stats.dropped,
        "net.queue.drop_share": stats.dropped / max(offered(queue), 1),
        "wireless.txops": wifi.txops,
        "wireless.pkts_per_txop": wifi.packets_sent / max(wifi.txops, 1),
    }


def core_counters(ap, packets: int) -> dict:
    """Fortune Teller / Feedback Updater counters of one ZhugeAP."""
    total = ap.hotpath_stats()[-1]
    return {
        "core.predictions": total.predictions,
        "core.prediction_cache_hit_share": (
            total.cache_hits / total.predictions if total.predictions
            else 0.0),
        "core.estimator_ops_per_pkt": total.estimator_ops / max(packets, 1),
        "core.acks_delayed": total.acks_delayed,
    }


class ApForwarding:
    """Bare AP datapath wired by the benchmark itself (no transport)."""

    name = "ap_forwarding"
    FLOWS = 4
    BURST = 8
    PAYLOAD = 1200
    LINK_BPS = 300e6
    #: 60 % of the nominal rate is ~95 % of the txop-overhead-adjusted
    #: wifi capacity: the queue stays busy (real AMPDU aggregation)
    #: without steady-state drops.
    LOAD = 0.6
    JITTER = 0.5
    WARMUP = 0.2

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.packets = 10_000 if smoke else 300_000
        self.counters: dict = {}

    def setup(self) -> None:
        self.flows = [FiveTuple("server", "client", 1000 + i, 2000 + i)
                      for i in range(self.FLOWS)]
        rng = random.Random(self.seed)
        self.flow_of = rng.choices(self.flows, k=self.packets)
        # Burst spacing jitters around the paced period, so queueing
        # delay (not only flow order) depends on the seed.
        period = self.BURST * self.PAYLOAD * 8 / (self.LOAD * self.LINK_BPS)
        self.gaps = [period * rng.uniform(1 - self.JITTER, 1 + self.JITTER)
                     for _ in range(self.packets // self.BURST + 1)]
        start = cpu()
        self.trace = TraceSpec.constant(self.LINK_BPS, duration=60.0,
                                        interval=60.0).build()
        self.counters["traces.generate_s"] = cpu() - start

    def run(self) -> None:
        start = cpu()
        sim = self.sim = Simulator()
        queue = self.queue = DropTailQueue(capacity_bytes=4_000_000)
        ap = self.ap = ZhugeAP(sim, queue, rng=DeterministicRandom(self.seed))
        for flow in self.flows:
            ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        channel = WirelessChannel(self.trace, mac_efficiency=1.0)
        wifi = self.wifi = WirelessLink(sim, channel, queue,
                                        propagation_delay=0.001)
        wan = self.wan = WiredLink(sim, rate_bps=self.LINK_BPS, delay=0.010,
                                   name="wan")
        ack_line = WiredLink(sim, rate_bps=None, delay=0.010, name="ack")
        wan.deliver = ap.on_downlink
        ap.forward_downlink = wifi.send
        ack_line.deliver = ap.on_uplink
        ack_line.deliver_batch = ap.on_ack_batch

        reverse = {flow: flow.reversed() for flow in self.flows}
        delays = self.delays = array("d")
        self.warm_from = 0

        def client_deliver_batch(batch) -> None:
            now = sim.now
            if now < self.WARMUP:
                self.warm_from += len(batch)
            delays.extend([now - packet.sent_at for packet in batch])
            ack_line.send_batch([Packet(reverse[packet.flow], ACK_SIZE,
                                        PacketKind.ACK, ack=packet.seq)
                                 for packet in batch])

        wifi.deliver = lambda packet: client_deliver_batch((packet,))
        wifi.deliver_batch = client_deliver_batch

        # Algorithm 1's order-preservation clamp, observed where the AP
        # hands feedback to the WAN: per flow, release times never go back.
        last_release = self.last_release = {r: 0.0 for r in reverse.values()}
        self.releases = 0
        self.release_order_ok = True

        def on_release(packet) -> None:
            now = sim.now
            if now < last_release[packet.flow]:
                self.release_order_ok = False
            last_release[packet.flow] = now
            self.releases += 1

        ap.forward_uplink = on_release

        flow_of = self.flow_of
        gaps = self.gaps
        total = self.packets
        self.sent = 0

        def send_burst() -> None:
            sent = self.sent
            now = sim.now
            for seq in range(sent, min(sent + self.BURST, total)):
                wan.send(Packet(flow_of[seq], self.PAYLOAD, seq=seq,
                                sent_at=now))
            self.sent = sent = min(sent + self.BURST, total)
            if sent < total:
                sim.schedule(gaps[sent // self.BURST], send_burst)

        sim.schedule(0.0, send_burst)
        self.counters["topology.build_s"] = cpu() - start
        sim.run()
        self.goodput_mbps = len(delays) * self.PAYLOAD * 8 / sim.now / 1e6

    def outcome(self) -> dict:
        delays = self.delays
        delivered = len(delays)
        dropped = (self.wan.queue.stats.dropped + self.queue.stats.dropped
                   + self.wifi.fault_dropped)
        digest = hashlib.sha256()
        digest.update(delays.tobytes())
        digest.update(json.dumps(
            [delivered, dropped, self.releases, repr(self.sim.now),
             sorted((flow.src_port, repr(t))
                    for flow, t in self.last_release.items())]).encode())
        counters = dict(self.counters)
        counters.update(queue_counters(self.queue, self.wifi))
        counters.update(core_counters(self.ap, delivered))
        return {
            "packets": delivered,
            "events": self.sim.events_processed,
            "event_model": self.sim.event_model,
            "digest": digest.hexdigest(),
            "sim_delay_p99_ms": percentile(delays[self.warm_from:], 99) * 1e3,
            "sim_goodput_mbps": self.goodput_mbps,
            "checks": {
                "queue_conservation": queue_conserves(self.queue),
                "packet_conservation": delivered + dropped == self.sent,
                "every_ack_released": self.releases == delivered,
                "ack_release_order": self.release_order_ok,
            },
            "counters": counters,
        }

    def datapath_micro(self, packets: int = 20_000) -> dict:
        """Per-call cost of the three AP entry points at 4 flows.

        Continues the ``datapath`` family of BENCH_hotpath.json (which
        records 1/10/100 flows) on the ledger's own flow count.
        """
        sim = Simulator()
        queue = DropTailQueue(capacity_bytes=10_000_000)
        ap = ZhugeAP(sim, queue, rng=DeterministicRandom(self.seed))
        for flow in self.flows:
            ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        reverse = [flow.reversed() for flow in self.flows]
        clock = time.perf_counter
        t_down = t_up = 0.0
        now = 0.0
        for i in range(packets):
            data = Packet(self.flows[i % self.FLOWS], self.PAYLOAD, seq=i)
            queue.enqueue(data, now)
            t0 = clock()
            ap.on_downlink(data)
            t_down += clock() - t0
            queue.dequeue(now + 0.002)
            ack = Packet(reverse[i % self.FLOWS], ACK_SIZE, PacketKind.ACK,
                         ack=i)
            t0 = clock()
            ap.on_uplink(ack)
            t_up += clock() - t0
            now += 0.005
        predict = ap.fortune_teller.predict
        t0 = clock()
        for _ in range(packets):
            predict()
        t_predict = clock() - t0
        return {
            "core.fortune_teller.predict_us": t_predict / packets * 1e6,
            "core.zhuge_ap.on_downlink_us": t_down / packets * 1e6,
            "core.zhuge_ap.on_uplink_us": t_up / packets * 1e6,
        }


class Scenario:
    """One ``ScenarioSpec`` through ``TopologyBuilder``: real senders."""

    family: str
    full_duration: float
    smoke_duration: float
    spec_fields: dict

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.duration = self.smoke_duration if smoke else self.full_duration
        self.counters: dict = {}

    def setup(self) -> None:
        self.spec = ScenarioSpec(
            trace=TraceSpec.for_family(self.family, duration=self.duration,
                                       seed=SHAPE_SEED),
            duration=self.duration, seed=self.seed, ap_mode="zhuge",
            **self.spec_fields)
        start = cpu()
        self.config = self.spec.to_config()
        self.counters["traces.generate_s"] = cpu() - start

    def run(self) -> None:
        start = cpu()
        self.builder = TopologyBuilder(self.config)
        self.counters["topology.build_s"] = cpu() - start
        result = self.builder.run()
        self.summary = ScenarioSummary.from_result(result, self.spec)

    def outcome(self) -> dict:
        summary = self.summary
        builder = self.builder
        rtts = [v for flow in summary.flows for v in flow.rtt_values]
        senders = [sender for sender, _receiver, _app in builder.video_apps]
        counters = dict(self.counters)
        counters.update(queue_counters(builder.downlink_queue,
                                       builder.downlink_wireless))
        counters.update(core_counters(builder.zhuge,
                                      summary.packets_processed))
        counters["transport.retransmissions"] = sum(
            getattr(s, "retransmissions", 0) for s in senders)
        counters["transport.rto_count"] = sum(
            getattr(s, "rto_count", 0) for s in senders)
        return {
            "packets": summary.packets_processed,
            "events": summary.events_processed,
            "event_model": builder.sim.event_model,
            "digest": summary.digest(),
            "sim_delay_p99_ms": percentile(rtts, 99) * 1e3,
            "sim_goodput_mbps": sum(f.goodput_bps
                                    for f in summary.flows) / 1e6,
            "checks": {
                "queue_conservation": queue_conserves(
                    builder.downlink_queue),
            },
            "counters": counters,
        }


class RtcVideoInband(Scenario):
    name = "rtc_video_inband"
    family = "W1"
    full_duration = 360.0
    smoke_duration = 12.0
    spec_fields = dict(protocol="rtp", cca="gcc", rtc_flows=2,
                       queue_kind="fifo")


class TcpAqmContended(Scenario):
    name = "tcp_aqm_contended"
    family = "W2"
    full_duration = 80.0
    smoke_duration = 6.5
    spec_fields = dict(protocol="tcp", cca="copa", competitors=2,
                       queue_kind="codel")


class CityGridSharded:
    """A sharded 24-AP grid city through the campaign runner and cache.

    ``run_city`` ties the layout seed and the simulation seed together
    (``seed=gen.seed`` on every shard), so the timed section folds the
    same three calls itself — ``city_specs`` for the shard plan,
    ``run_campaign(consume=...)``, ``FleetAccumulator`` — with the
    layout pinned and the shards re-seeded.

    RTC flows only.  One CUBIC bulk competitor makes the city's host
    time and peak RSS chaotic in the seed (README, "what bulk
    competitors do to the city"), wider than any bound could resolve;
    ``tcp_aqm_contended`` carries the bulk-TCP cost instead.
    """

    name = "city_grid_sharded"

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        aps, self.shard_aps, self.duration = ((6, 2, 6.5) if smoke
                                              else (24, 4, 10.0))
        self.gen = CityGenSpec.for_preset("grid", aps=aps, seed=SHAPE_SEED,
                                          competitor_share=0.0)
        self.cache_root = tmp / "city-cache"
        self.scratch_root = tmp / "city-put"
        self.counters: dict = {}

    def setup(self) -> None:
        start = cpu()
        topology = self.gen.build()
        built = cpu()
        partition_topology(topology, max_shard_aps=self.shard_aps)
        self.counters["city.gen.build_s"] = built - start
        self.counters["city.shard.partition_s"] = cpu() - built
        _plan, specs = city_specs(self.gen, duration=self.duration,
                                 shard_aps=self.shard_aps)
        self.specs = [replace(spec, seed=self.seed) for spec in specs]
        start = cpu()
        self.specs[0].trace.build()
        self.counters["traces.generate_s"] = cpu() - start
        # Spec hashing fingerprints the whole source tree once per
        # process; it belongs to set-up, not to the simulated traffic.
        for spec in self.specs:
            spec.content_hash()

    def _campaign(self):
        cache = ResultCache(root=self.cache_root)
        fleet = FleetAccumulator()
        result = run_campaign(
            self.specs, jobs=0, cache=cache,
            consume=lambda cell: fleet.add(cell.index, cell.summary))
        return result, fleet.finalize(), cache

    def run(self) -> None:
        self.cold, self.fleet, _cache = self._campaign()

    def outcome(self) -> dict:
        cold, fleet = self.cold, self.fleet
        shards = len(self.specs)
        start = cpu()
        warm, warm_fleet, cache = self._campaign()
        warm_s = cpu() - start
        lookups = cache.stats.hits + cache.stats.misses
        walls = [cell.wall_s for cell in cold.cells]
        counters = dict(self.counters)
        counters.update({
            "campaign.cache.hit_share": (cache.stats.hits / lookups
                                         if lookups else 0.0),
            "campaign.cache.replay_cells_per_s": shards / warm_s,
            "city.slowest_shard_share": max(walls) / sum(walls),
        })

        # Per-entry cache and merge costs, one shard at a time, on the
        # entries the cold run wrote.
        start = cpu()
        summaries = [cache.get(spec) for spec in self.specs]
        get_s = cpu() - start
        scratch = ResultCache(root=self.scratch_root)
        start = cpu()
        paths = [scratch.put(spec, summary)
                 for spec, summary in zip(self.specs, summaries)]
        put_s = cpu() - start
        refold = FleetAccumulator()
        start = cpu()
        for index, summary in enumerate(summaries):
            refold.add(index, summary)
        add_s = cpu() - start
        start = cpu()
        refold_digest = refold.finalize().digest()
        finalize_s = cpu() - start
        counters.update({
            "campaign.cache.get_ms": get_s / shards * 1e3,
            "campaign.cache.put_ms": put_s / shards * 1e3,
            "campaign.cache.entry_kb": sum(
                path.stat().st_size for path in paths) / shards / 1024,
            "city.merge.add_ms": add_s / shards * 1e3,
            "city.merge.finalize_ms": finalize_s * 1e3,
        })
        return {
            "packets": fleet.packets_processed,
            "events": fleet.events_processed,
            "event_model": Simulator().event_model,
            "digest": fleet.digest(),
            "sim_delay_p99_ms": fleet.rtt_p99 * 1e3,
            "sim_goodput_mbps": fleet.goodput_bps_total / 1e6,
            "checks": {
                "all_shards_ran": cold.ok == shards and cold.cached == 0,
                "warm_all_cached": warm.cached == shards,
                "warm_digest_equal": warm_fleet.digest() == fleet.digest(),
                "refold_digest_equal": refold_digest == fleet.digest(),
            },
            "counters": counters,
        }


WORKLOADS = {cls.name: cls for cls in (ApForwarding, RtcVideoInband,
                                       TcpAqmContended, CityGridSharded)}
