#!/usr/bin/env python3
"""Cloud gaming through a sudden bandwidth collapse.

Models the paper's Fig. 3a story on a cloud-gaming-style stream (video
over a TCP-like transport with Copa): the wireless link loses 10x of
its bandwidth mid-session (a neighbour's microwave, an elevator door, a
handover). Shows how long the session stays degraded with a plain AP,
a FastAck AP, and a Zhuge AP.

Usage::

    python examples/cloud_gaming_drop.py [k]
"""

import sys

from repro import ScenarioSpec, TopologyBuilder, TraceSpec


def main() -> None:
    # Default k=10: 30/10 = 3 Mbps is well below the 8 Mbps the stream
    # can demand, so the drop congests the session.
    k = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    drop_at, duration = 15.0, 30.0
    trace = TraceSpec.drop(30e6, k=k, drop_at=drop_at, duration=duration)
    print(f"30 Mbps wireless link loses {k:g}x of its bandwidth at "
          f"t={drop_at:.0f}s.")
    print(f"{'AP mode':16s}{'RTT>200ms dur':>16s}{'frame>400ms dur':>18s}"
          f"{'fps<10 dur':>14s}")

    schemes = (
        ("plain TCP/Copa", dict(protocol="tcp", cca="copa", ap_mode="none")),
        ("FastAck TCP", dict(protocol="tcp", cca="copa", ap_mode="fastack")),
        ("plain RTP/GCC", dict(protocol="rtp", ap_mode="none")),
        ("Zhuge RTP/GCC", dict(protocol="rtp", ap_mode="zhuge")),
    )
    for label, overrides in schemes:
        spec = ScenarioSpec(trace=trace, duration=duration,
                            wan_delay=0.025, max_bps=8e6, warmup=2.0,
                            **overrides)
        result = TopologyBuilder(spec).run()
        flow = result.flows[0]
        rtt_dur = flow.rtt.degradation_duration(0.200, start=drop_at)
        frame_dur = flow.frames.delay_degradation_duration(0.400,
                                                           start=drop_at)
        fps_dur = flow.frames.low_fps_duration(duration - drop_at,
                                               start=drop_at)
        print(f"{label:16s}{rtt_dur:>14.2f}s {frame_dur:>16.2f}s "
              f"{fps_dur:>12.1f}s")


if __name__ == "__main__":
    main()
