"""Extension bench: Zhuge over encrypted QUIC (§6 scalability).

Not a paper figure — the paper argues Zhuge keeps working when the
transport encrypts everything, because the out-of-band updater reads
only five-tuples and manipulates ACK timing. We run video-over-QUIC
(sealed headers) through plain and Zhuge APs and check parity-or-better
tails with frames intact.
"""

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.experiments.drivers.format import format_table, mbps, pct


def run_cases(duration=40.0):
    cells = [(name, seed, mode) for name, seed in (("W1", 2), ("C2", 3))
             for mode in ("none", "zhuge")]
    summaries = run_specs([ScenarioSpec(
        trace=TraceSpec.for_family(name, duration=duration, seed=seed),
        protocol="quic", cca="copa", ap_mode=mode, duration=duration,
        seed=seed) for name, seed, mode in cells])
    return [(name, mode, result.rtt.tail_ratio(),
             result.frames.delayed_ratio(), result.frames.count,
             result.flows[0].goodput_bps)
            for (name, _, mode), result in zip(cells, summaries)]


def test_ext_quic(once):
    rows = once(run_cases)
    table = [(trace, mode, pct(tail), pct(delayed), frames, mbps(goodput))
             for trace, mode, tail, delayed, frames, goodput in rows]
    print()
    print(format_table(
        "Extension — Zhuge over encrypted QUIC",
        ("trace", "AP", "RTT>200ms", "frame>400ms", "frames", "goodput"),
        table))

    by_key = {(r[0], r[1]): r for r in rows}
    for trace in ("W1", "C2"):
        base = by_key[(trace, "none")]
        zhuge = by_key[(trace, "zhuge")]
        assert zhuge[2] <= base[2] + 0.02, trace     # tail parity or better
        assert zhuge[4] >= base[4] * 0.8, trace      # frames keep flowing
        assert zhuge[5] >= base[5] * 0.7, trace      # goodput kept
