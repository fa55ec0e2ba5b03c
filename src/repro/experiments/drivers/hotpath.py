"""Hot-path perf-regression driver: the numbers behind ``BENCH_hotpath.json``.

Two measurement families:

* **micro** — each optimized sliding-window estimator against its naive
  re-scan reference (:mod:`repro.core.sliding_window_reference`, the
  seed implementation) on an identical pre-filled window.  The recorded
  ``speedup`` is the regression guard: the acceptance floor is >= 3x on
  ``DelayDeltaHistory.sample`` and
  ``DequeueIntervalEstimator.average_interval``.
* **datapath** — ops/sec of ``predict`` and of the AP's two entry
  points (``on_downlink`` / ``on_uplink``, kept under their trajectory
  keys ``on_data_packet`` / ``ack_delay``) at 1/10/100 flows, timed on
  Fig. 21's loop (:func:`.overhead.timed_spin`).
* **end_to_end** — wall-clock packets/sec of the whole simulated
  datapath driven through the event loop: sender bursts -> WAN link ->
  ``ZhugeAP.on_downlink`` -> wireless AMPDU txops -> client -> per-packet
  ACK -> reverse delay line -> ``ZhugeAP.on_uplink``.  This is the
  number the ROADMAP's "1M packets/sec" target is measured against; it
  exercises the scheduler, queue, link batching, and estimators
  together rather than one entry point at a time.

``write_results`` appends one run to the ``runs`` list of the JSON, so
successive runs accumulate a perf trajectory instead of overwriting it;
a file it cannot read as that trajectory is refused, never replaced.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core.sliding_window import (
    BurstSizeTracker,
    DelayDeltaHistory,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.core.sliding_window_reference import (
    ReferenceBurstSizeTracker,
    ReferenceDelayDeltaHistory,
    ReferenceDequeueIntervalEstimator,
    ReferenceSlidingWindowRate,
)
from repro.experiments.drivers.overhead import datapath, timed_spin
from repro.net.packet import ACK_SIZE, Packet, PacketKind
from repro.sim.random import DeterministicRandom

SCHEMA = "hotpath-regression/v1"
# How many samples the micro benches hold in-window. 256 models a busy
# AP (a 40 ms window at ~6000 pps); the naive implementations re-scan
# all of them per query, the optimized ones touch O(1).
MICRO_FILL = 256


def _time_calls(fn, calls: int) -> float:
    """Wall-clock ops/sec of ``calls`` invocations of ``fn``."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    elapsed = time.perf_counter() - start
    return calls / elapsed if elapsed > 0 else float("inf")


def _micro_pair(name, optimized_fn, reference_fn, queries) -> dict:
    return {
        "name": name,
        "window_fill": MICRO_FILL,
        "queries": queries,
        "optimized_ops_per_sec": _time_calls(optimized_fn, queries),
        "reference_ops_per_sec": _time_calls(reference_fn, queries),
    }


def bench_estimator_micro(queries: int = 20_000) -> list[dict]:
    """Optimized-vs-reference query throughput on identical windows."""
    spacing = 0.002
    span = MICRO_FILL * spacing
    now = span  # query time; every recorded event is still in window

    results = []

    opt_hist = DelayDeltaHistory(window=2 * span, rng=DeterministicRandom(7))
    ref_hist = ReferenceDelayDeltaHistory(window=2 * span,
                                          rng=DeterministicRandom(7))
    for i in range(MICRO_FILL):
        t, d = i * spacing, 0.001 + (i % 16) * 0.0001
        opt_hist.push(t, d)
        ref_hist.push(t, d)
    results.append(_micro_pair(
        "DelayDeltaHistory.sample",
        lambda: opt_hist.sample(now), lambda: ref_hist.sample(now), queries))
    results.append(_micro_pair(
        "DelayDeltaHistory.mean",
        lambda: opt_hist.mean(now), lambda: ref_hist.mean(now), queries))

    opt_intervals = DequeueIntervalEstimator(window=2 * span)
    ref_intervals = ReferenceDequeueIntervalEstimator(window=2 * span)
    for i in range(MICRO_FILL + 1):
        opt_intervals.record_departure(i * spacing)
        ref_intervals.record_departure(i * spacing)
    results.append(_micro_pair(
        "DequeueIntervalEstimator.average_interval",
        lambda: opt_intervals.average_interval(now),
        lambda: ref_intervals.average_interval(now), queries))

    opt_bursts = BurstSizeTracker(window=2 * span)
    ref_bursts = ReferenceBurstSizeTracker(window=2 * span)
    for i in range(MICRO_FILL):
        opt_bursts.record_departure(i * spacing, 1200 + (i % 7) * 100)
        ref_bursts.record_departure(i * spacing, 1200 + (i % 7) * 100)
    results.append(_micro_pair(
        "BurstSizeTracker.max_burst_bytes",
        lambda: opt_bursts.max_burst_bytes(now),
        lambda: ref_bursts.max_burst_bytes(now), queries))

    opt_rate = SlidingWindowRate(window=2 * span)
    ref_rate = ReferenceSlidingWindowRate(window=2 * span)
    for i in range(MICRO_FILL):
        opt_rate.record(i * spacing, 1200)
        ref_rate.record(i * spacing, 1200)
    results.append(_micro_pair(
        "SlidingWindowRate.rate_bps",
        lambda: opt_rate.rate_bps(now), lambda: ref_rate.rate_bps(now),
        queries))

    for row in results:
        row["speedup"] = (row["optimized_ops_per_sec"]
                          / row["reference_ops_per_sec"])
    return results


def bench_datapath(flows: int, packets: int = 20_000) -> dict:
    """Aggregate ops/sec of the per-packet entry points at ``flows``."""
    ap, _, (t_data, t_ack) = timed_spin(flows, packets)
    predict_calls = min(packets, 20_000)
    predict_ops = _time_calls(ap.fortune_teller.predict, predict_calls)
    return {
        "flows": flows,
        "packets": packets,
        "predict_ops_per_sec": predict_ops,
        "on_data_packet_ops_per_sec": packets / t_data,
        "ack_delay_ops_per_sec": packets / t_ack,
    }


def bench_end_to_end(packets: int = 30_000, flows: int = 4,
                     link_rate_bps: float = 300e6,
                     watchdog: bool = False,
                     control: bool = False) -> dict:
    """Wall-clock packets/sec of the full datapath through the event loop.

    A paced sender pushes ``packets`` data packets (split across
    ``flows`` registered RTC flows) through a WAN :class:`WiredLink`
    into the AP of :func:`~repro.experiments.drivers.overhead.datapath`,
    which forwards into a
    :class:`WirelessLink` serving AMPDU txops off the shared downlink
    queue, and the client answers every delivery with an ACK routed
    back through a delay line into ``ZhugeAP.on_uplink``.  The reported
    rate counts *data* packets end to end (each of which also costs an
    ACK traversal), so it is the honest "packets/sec the simulator
    sustains" figure for the ROADMAP scaling target.
    """
    from repro.net.link import WiredLink
    from repro.traces.trace import BandwidthTrace
    from repro.wireless.channel import WirelessChannel
    from repro.wireless.link import WirelessLink

    sim, queue, ap, flow_objs = datapath(flows)
    channel = WirelessChannel(BandwidthTrace([link_rate_bps], interval=60.0),
                              mac_efficiency=1.0)
    wifi = WirelessLink(sim, channel, queue, propagation_delay=0.001)
    wan = WiredLink(sim, rate_bps=link_rate_bps, delay=0.010, name="wan")
    ack_line = WiredLink(sim, rate_bps=None, delay=0.010, name="ack")

    wan.deliver = ap.on_downlink
    ap.forward_downlink = wifi.send
    delivered = 0

    controller = None
    if control:
        # The GREEN-steady cost cell: a ZhugeController riding a healthy
        # datapath — vote/check timer, drop hook, and the watchdog
        # sensor it attaches.
        from repro.control import ControllerConfig, ZhugeController
        controller = ZhugeController(sim, ap, ControllerConfig())
    elif watchdog:
        # The PR 4 static safety configuration: watchdog sensing per
        # packet, no control loop. The baseline the controller cell's
        # overhead is measured against, since the controller reuses
        # this watchdog as its sensor.
        ap.enable_watchdog()
    sensing = control or watchdog

    # Reverse five-tuples are immutable; building one per ACK would
    # bill flow-object churn to the datapath under measurement.
    reverse_flow = {flow: flow.reversed() for flow in flow_objs}
    Packet_ = Packet
    _ACK = PacketKind.ACK

    def client_deliver(batch):
        # One call per txop.  Without sensing the whole txop's ACKs are
        # built in one sweep and join one arrival burst on the delay
        # line — identical to sending them one by one (same
        # construction order, nothing scheduled in between, no sensing
        # state to interleave).
        nonlocal delivered
        if not sensing:
            delivered += len(batch)
            ack_send_batch([Packet_(reverse_flow[p.flow], ACK_SIZE, _ACK,
                                    ack=p.seq) for p in batch])
            return
        for packet in batch:
            delivered += 1
            ap.on_wireless_delivery(packet)
            if delivered >= packets:
                # The periodic control/watchdog timers would keep the
                # event queue alive forever; the run ends with the last
                # delivery.
                if controller is not None:
                    controller.stop()
                ap.watchdog.stop()
            ack_send(Packet_(reverse_flow[packet.flow], ACK_SIZE, _ACK,
                             ack=packet.seq))

    wifi.deliver_batch = client_deliver
    ack_line.deliver = ap.on_uplink
    # One txop's deliveries ACK at the same instant, so the delay line
    # hands the whole burst to the AP in one call.  ``forward_uplink``
    # stays None: the bench has no WAN side behind the AP, and the
    # updater skips the forward without a callback trampoline.
    ack_line.deliver_batch = ap.on_ack_batch

    wan_send = wan.send
    ack_send = ack_line.send
    ack_send_batch = ack_line.send_batch

    # Paced sender: bursts of 8 packets at 60% of the nominal link rate
    # (~95% of the txop-overhead-adjusted wifi capacity), so the queue
    # stays busy — real AMPDU aggregation — without steady-state drops.
    burst = 8
    period = burst * 1200 * 8 / (0.6 * link_rate_bps)
    sent = 0

    def send_burst():
        nonlocal sent
        for _ in range(burst):
            if sent >= packets:
                return
            wan_send(Packet(flow_objs[sent % flows], 1200, seq=sent))
            sent += 1
        sim.schedule(period, send_burst)

    sim.schedule(0.0, send_burst)
    # Measure with the cyclic collector paused — the ``timeit``
    # convention — so GC pauses triggered by unrelated allocation
    # history don't land inside one cell and not another.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        sim.run()
    finally:
        elapsed = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
    result = {
        "packets": packets,
        "flows": flows,
        "delivered": delivered,
        "events": sim.events_processed,
        "events_per_packet": sim.events_processed / max(delivered, 1),
        "packets_per_sec": delivered / elapsed if elapsed > 0 else float("inf"),
        "events_per_sec": (sim.events_processed / elapsed
                           if elapsed > 0 else float("inf")),
    }
    if controller is not None:
        result["controller_state"] = controller.state
        result["control_transitions"] = len(controller.transitions)
    return result


def bench_end_to_end_controller(packets: int = 30_000, flows: int = 4,
                                repeats: int = 5) -> dict:
    """GREEN-steady controller overhead on the end-to-end datapath.

    Best-of-``repeats`` packets/sec of a
    :class:`~repro.control.controller.ZhugeController`-managed AP
    against the PR 4 static safety configuration (watchdog enabled, no
    control loop) — the baseline whose watchdog sensor the controller
    reuses, so the delta is the control loop itself: the vote/check
    timer, the drop hook, and policy bookkeeping. The controller must
    stay GREEN for the whole run (a healthy link must not trip the
    voters) and its steady-state cost is pinned under ``ceiling``.
    """
    # Interleave the two cells A/B/A/B instead of running each block
    # back to back: CPU frequency drift over a multi-second block
    # otherwise lands entirely on whichever cell runs later and shows
    # up as phantom overhead several times the ceiling.
    plain_best = 0.0
    runs = []
    for _ in range(repeats):
        plain_best = max(plain_best, bench_end_to_end(
            packets, flows, watchdog=True)["packets_per_sec"])
        runs.append(bench_end_to_end(packets, flows, control=True))
    controlled_best = max(run["packets_per_sec"] for run in runs)
    return {
        "packets": packets,
        "flows": flows,
        "repeats": repeats,
        # Re-pinned for the PR 10 macro datapath: the faster shared
        # path shrank the ratio's denominator ~20% (a fixed absolute
        # controller cost now reads as a larger fraction), and the
        # best-of-N wall-clock spread on a shared runner is itself
        # several percent.  The structural guards (GREEN steady, zero
        # transitions, zero drops) stay strict; the ratio is a coarse
        # brake against gross control-loop bloat, not a tight budget.
        "ceiling": 0.08,
        "plain_best_pps": plain_best,
        "controlled_best_pps": controlled_best,
        "overhead_ratio": plain_best / controlled_best - 1.0,
        "controller_state": runs[-1]["controller_state"],
        "control_transitions": runs[-1]["control_transitions"],
        "delivered": runs[-1]["delivered"],
    }


def run_hotpath_bench(queries: int = 20_000, packets: int = 20_000,
                      flow_counts=(1, 10, 100),
                      e2e_packets: int = 30_000,
                      e2e_repeats: int = 5) -> dict:
    return {
        "micro": bench_estimator_micro(queries=queries),
        "datapath": [bench_datapath(flows, packets=packets)
                     for flows in flow_counts],
        # Runs without this key timed an older loop (simulator clock
        # left at 0, one-packet dequeue, no-op forward callbacks);
        # their datapath numbers do not compare with these.
        "datapath_loop": "overhead.spin",
        # Best-of-``e2e_repeats``: a single wall-clock run is hostage
        # to scheduler noise.
        "end_to_end": max((bench_end_to_end(packets=e2e_packets)
                           for _ in range(e2e_repeats)),
                          key=lambda run: run["packets_per_sec"]),
        "controller": bench_end_to_end_controller(packets=e2e_packets,
                                                  repeats=e2e_repeats),
    }


def write_results(path: str | Path, payload: dict | None = None) -> dict:
    """Append one run to the trajectory file at ``path`` and return it."""
    path = Path(path)
    run = dict(payload if payload is not None else run_hotpath_bench())
    run["recorded_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    run["python"] = sys.version.split()[0]

    doc = {"schema": SCHEMA, "runs": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            existing = None
        if not (isinstance(existing, dict)
                and existing.get("schema") == SCHEMA):
            raise ValueError(f"{path} is not a readable {SCHEMA} "
                             f"trajectory; left it untouched")
        doc["runs"] = list(existing.get("runs", []))
    doc["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
