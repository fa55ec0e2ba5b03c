#!/usr/bin/env python3
"""Mini Fig. 11: sweep AP modes across trace families.

Runs a WebRTC-style session over each synthetic trace family with a
plain FIFO AP, a CoDel AP, and a Zhuge AP, and prints the paper's tail
metrics per cell — a compact version of the trace-driven evaluation
that finishes in about a minute.

Usage::

    python examples/ap_mode_study.py [duration_seconds]
"""

import sys

from repro import ScenarioSpec, TopologyBuilder, TraceSpec

SCHEMES = (
    ("FIFO", dict(ap_mode="none", queue_kind="fifo")),
    ("CoDel", dict(ap_mode="none", queue_kind="codel")),
    ("Zhuge", dict(ap_mode="zhuge", queue_kind="fifo")),
)


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 30.0
    print(f"RTP/GCC video, {duration:.0f} s per cell\n")
    print(f"{'trace':8s}{'AP':8s}{'RTT>200ms':>12s}{'frame>400ms':>14s}"
          f"{'bitrate':>10s}")
    for trace_name in ("W1", "W2", "C1", "C2", "C3"):
        trace = TraceSpec.for_family(trace_name, duration=duration, seed=1)
        for label, overrides in SCHEMES:
            spec = ScenarioSpec(trace=trace, protocol="rtp",
                                duration=duration, seed=1, **overrides)
            result = TopologyBuilder(spec).run()
            flow = result.flows[0]
            print(f"{trace_name:8s}{label:8s}"
                  f"{flow.rtt.tail_ratio() * 100:11.2f}%"
                  f"{flow.frames.delayed_ratio() * 100:13.2f}%"
                  f"{flow.mean_bitrate_bps / 1e6:9.2f}M")
        print()


if __name__ == "__main__":
    main()
