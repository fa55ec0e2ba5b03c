"""Fig. 11: trace-driven evaluation over RTP/RTCP.

Paper: Gcc+Zhuge reduces the long-RTT ratio by 45-75% against the best
baseline and the delayed-frame ratio by 38-92%, across all five traces.
We assert the aggregate shape: Zhuge's tail metrics beat the best
baseline on average and never lose badly on any single trace.
"""

from repro.experiments.drivers.format import format_trace_rows
from repro.experiments.drivers.traces_eval import fig11_rtp_traces


def test_fig11_rtp_traces(once):
    rows = once(fig11_rtp_traces, duration=60.0, seeds=(1, 2))
    print()
    print(format_trace_rows(
        "Fig. 11 — RTP/RTCP trace-driven evaluation", rows))

    def metric(trace, scheme, attr):
        return next(getattr(r, attr) for r in rows
                    if r.trace == trace and r.scheme == scheme)

    traces = sorted({r.trace for r in rows})
    zhuge_rtt, best_base_rtt = [], []
    zhuge_fd, best_base_fd = [], []
    for trace in traces:
        zhuge_rtt.append(metric(trace, "Gcc+Zhuge", "rtt_tail_ratio"))
        best_base_rtt.append(min(
            metric(trace, "Gcc+FIFO", "rtt_tail_ratio"),
            metric(trace, "Gcc+CoDel", "rtt_tail_ratio")))
        zhuge_fd.append(metric(trace, "Gcc+Zhuge", "delayed_frame_ratio"))
        best_base_fd.append(min(
            metric(trace, "Gcc+FIFO", "delayed_frame_ratio"),
            metric(trace, "Gcc+CoDel", "delayed_frame_ratio")))

    # Aggregate: Zhuge cuts the mean tail ratios against the best baseline.
    assert sum(zhuge_rtt) < sum(best_base_rtt), (zhuge_rtt, best_base_rtt)
    # Per trace: never catastrophically worse.
    for z, b, trace in zip(zhuge_rtt, best_base_rtt, traces):
        assert z <= b + 0.02, (trace, z, b)
