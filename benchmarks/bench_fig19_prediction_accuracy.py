"""Fig. 19: Fortune Teller prediction accuracy.

Paper: prediction error is well below the 50 ms experiment RTT in most
cases; low predictions (1-64 ms) are accurate, and when the prediction
is high (>64 ms) the real delay is also high — high enough to trigger
the sender anyway.
"""

from repro.experiments.drivers.accuracy import fig19_prediction_accuracy
from repro.experiments.drivers.format import format_table, ms
from repro.obs.audit import BINS


def test_fig19_prediction_accuracy(once):
    results = once(fig19_prediction_accuracy, traces=("W1", "W2", "C1"),
                   duration=40.0)
    table = [(r.trace, r.pairs, ms(r.median_error, 1), ms(r.p90_error, 1))
             for r in results]
    print()
    print(format_table(
        "Fig. 19a — prediction error by trace",
        ("trace", "packets", "median |err|", "P90 |err|"),
        table))

    # Heatmap for the first trace (Fig. 19b).
    heat = results[0].heatmap
    bins = len(BINS)
    header = ["pred\\real"] + [ms(edge) for edge in BINS]
    lines = []
    for pred_bin in range(bins):
        row_total = sum(heat.get((pred_bin, rb), 0) for rb in range(bins))
        cells = []
        for real_bin in range(bins):
            count = heat.get((pred_bin, real_bin), 0)
            cells.append(f"{count / row_total:.2f}" if row_total else "-")
        lines.append([ms(BINS[pred_bin])] + cells)
    print()
    print(format_table("Fig. 19b — predicted vs real delay "
                       f"(rows normalized), trace {results[0].trace}",
                       header, lines))

    for result in results:
        assert result.pairs > 500
        # Median error well under the 50 ms experiment RTT.
        assert result.median_error < 0.050, result.trace

    # Diagonal dominance: when the prediction is low (<=16 ms), the
    # real delay is usually low too.
    low_bins = (0, 1, 2)
    low_total = sum(v for (p, r), v in heat.items() if p in low_bins)
    low_diag = sum(v for (p, r), v in heat.items()
                   if p in low_bins and r <= 3)
    assert low_total == 0 or low_diag / low_total > 0.8
