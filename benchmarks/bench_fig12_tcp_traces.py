"""Fig. 12: trace-driven evaluation over TCP.

Paper: Copa+Zhuge beats Copa and Copa+FastAck on tail latency across
traces and is comparable to ABC (which needs modified end hosts).
"""

from repro.experiments.drivers.format import format_trace_rows
from repro.experiments.drivers.traces_eval import fig12_tcp_traces


def test_fig12_tcp_traces(once):
    rows = once(fig12_tcp_traces, duration=60.0, seeds=(1, 2))
    print()
    print(format_trace_rows(
        "Fig. 12 — TCP trace-driven evaluation", rows))

    def metric(trace, scheme, attr="rtt_tail_ratio"):
        return next(getattr(r, attr) for r in rows
                    if r.trace == trace and r.scheme == scheme)

    traces = sorted({r.trace for r in rows})
    zhuge = [metric(t, "Copa+Zhuge") for t in traces]
    plain = [metric(t, "Copa") for t in traces]
    fastack = [metric(t, "Copa+FastAck") for t in traces]

    # Zhuge as good as or better than the pure AP-based alternatives in
    # aggregate.
    assert sum(zhuge) <= sum(plain) + 0.01
    assert sum(zhuge) <= sum(fastack) + 0.01
    # And never catastrophically worse on a single trace.
    for z, p, t in zip(zhuge, plain, traces):
        assert z <= p + 0.02, (t, z, p)
