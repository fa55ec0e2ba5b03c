#!/usr/bin/env python3
"""Video conferencing on a busy home WiFi: RTC vs a family of competitors.

Models the intro's motivating workload: a WebRTC call (RTP/GCC) sharing
the home AP with bulk downloads (CUBIC flows that toggle on and off,
like someone starting a cloud backup mid-call). Compares plain FIFO,
CoDel, and Zhuge APs on call quality over time.

Usage::

    python examples/video_conference_wifi.py
"""

from repro import ScenarioSpec, TopologyBuilder, TraceSpec


def describe(result, label: str) -> None:
    flow = result.flows[0]
    duration = result.measured_duration()
    print(f"\n--- {label} ---")
    print(f"  RTT > 200 ms:        {flow.rtt.tail_ratio() * 100:6.2f}% "
          f"of packets")
    print(f"  frame delay > 400ms: {flow.frames.delayed_ratio() * 100:6.2f}% "
          f"of frames")
    print(f"  seconds under 10fps: "
          f"{flow.frames.low_fps_duration(duration, start=5.0):6.1f} s")
    print(f"  video bitrate:       "
          f"{flow.mean_bitrate_bps / 1e6:6.2f} Mbps")


def main() -> None:
    duration = 60.0
    trace = TraceSpec.for_family("W2", duration=duration, seed=3)
    print("Scenario: WebRTC call over office WiFi (trace W2), one CUBIC")
    print("bulk flow toggling every 15 s, 30 s of wall-clock per AP mode.")

    schemes = (
        ("Gcc + FIFO AP", dict(ap_mode="none", queue_kind="fifo")),
        ("Gcc + CoDel AP", dict(ap_mode="none", queue_kind="codel")),
        ("Gcc + Zhuge AP", dict(ap_mode="zhuge", queue_kind="fifo")),
    )
    for label, overrides in schemes:
        spec = ScenarioSpec(trace=trace, protocol="rtp",
                            duration=duration, seed=3,
                            competitors=1, competitor_period=15.0,
                            **overrides)
        describe(TopologyBuilder(spec).run(), label)


if __name__ == "__main__":
    main()
