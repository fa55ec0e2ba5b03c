#!/usr/bin/env python3
"""Quickstart: one RTC flow over a crowded-restaurant WiFi AP,
with and without Zhuge.

Runs the same 40-second WebRTC-style (RTP/GCC) session twice — once
through a plain AP and once through an AP running Zhuge — and prints
the paper's three metrics side by side.

Usage::

    python examples/quickstart.py [seed]
"""

import sys

from repro import ScenarioSpec, TopologyBuilder, TraceSpec
from repro.metrics.stats import percentile


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    duration = 40.0
    trace = TraceSpec.for_family("W1", duration=duration, seed=seed)
    print(f"Trace W1 (restaurant WiFi): mean "
          f"{trace.build().mean_bps / 1e6:.1f} Mbps, seed {seed}")
    print(f"{'':16s}{'plain AP':>14s}{'Zhuge AP':>14s}")

    results = {}
    for mode in ("none", "zhuge"):
        spec = ScenarioSpec(trace=trace, protocol="rtp", ap_mode=mode,
                            duration=duration, seed=seed)
        results[mode] = TopologyBuilder(spec).run()

    rows = [
        ("P50 RTT", lambda r: f"{percentile(r.rtt.rtts, 50) * 1000:.0f} ms"),
        ("P99 RTT", lambda r: f"{percentile(r.rtt.rtts, 99) * 1000:.0f} ms"),
        ("RTT>200ms", lambda r: f"{r.rtt.tail_ratio() * 100:.2f}%"),
        ("frames>400ms", lambda r: f"{r.frames.delayed_ratio() * 100:.2f}%"),
        ("frames decoded", lambda r: f"{r.frames.count}"),
        ("bitrate", lambda r:
         f"{r.flows[0].mean_bitrate_bps / 1e6:.2f} Mbps"),
    ]
    for label, fmt in rows:
        print(f"{label:16s}{fmt(results['none']):>14s}"
              f"{fmt(results['zhuge']):>14s}")


if __name__ == "__main__":
    main()
