#!/usr/bin/env python3
"""A client walks from one AP to the next mid-call.

Builds the two-AP roaming graph (``repro.topology``): the client starts
on AP-A, and at t=3 s a ``roam`` fault performs a real 802.11-style
handoff to AP-B — the old wireless edges flush and go down, routes
recompute, and (with Zhuge APs) the feedback-release floor carries over
so release times stay monotone while the new AP's Fortune Teller
relearns the channel. Downlink packets the WAN delivered to AP-A during
the blackout are forwarded to AP-B over the distribution system instead
of being stranded, so TCP rides through the handoff without an RTO
stall.

Usage::

    python examples/roaming_handoff.py [duration_seconds]
"""

import sys

from repro import ScenarioSpec, TopologyBuilder, TraceSpec
from repro.faults.spec import FaultPlan
from repro.metrics.stats import percentile
from repro.topology import roaming_topology

ROAM_AT, BLACKOUT = 3.0, 0.4


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 12.0
    trace = TraceSpec.for_family("W2", duration=duration, seed=1)
    print(f"TCP/Copa call on Zhuge APs; optional roam ap-a -> ap-b at "
          f"t={ROAM_AT:g}s ({BLACKOUT * 1000:.0f} ms blackout).")
    print(f"{'scenario':14s}{'P50 RTT':>10s}{'P99 RTT':>10s}"
          f"{'RTT>200ms':>12s}{'post-roam P50':>16s}  faults")
    for label, faults in (("stay on ap-a", None),
                          ("roam to ap-b", FaultPlan.parse(
                              f"roam@{ROAM_AT:g}+{BLACKOUT:g}"
                              f"/client:ap-b"))):
        spec = ScenarioSpec(
            trace=trace, protocol="tcp", cca="copa", ap_mode="zhuge",
            queue_kind="fq_codel", duration=duration, warmup=1.0,
            topology=roaming_topology(ap_mode="zhuge",
                                      queue_kind="fq_codel"),
            faults=faults)
        result = TopologyBuilder(spec).run()
        flow = result.flows[0]
        post = [s for t, s in zip(flow.rtt.times, flow.rtt.rtts)
                if t > ROAM_AT + BLACKOUT]
        post_p50 = percentile(post, 50) if post else float("nan")
        log = ",".join(f"{kind}:{phase}@{t:.1f}s"
                       for t, kind, phase in result.fault_log) or "-"
        print(f"{label:14s}{percentile(flow.rtt.rtts, 50) * 1e3:>8.1f}ms"
              f"{percentile(flow.rtt.rtts, 99) * 1e3:>8.1f}ms"
              f"{flow.rtt.tail_ratio() * 100:>11.2f}%"
              f"{post_p50 * 1e3:>14.1f}ms  {log}")


if __name__ == "__main__":
    main()
