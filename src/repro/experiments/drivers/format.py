"""Row formatting shared by the benchmark harness and the CLI."""

from __future__ import annotations

from typing import Sequence


def format_table(title: str, header: Sequence[str],
                 rows: Sequence[Sequence], widths: Sequence[int] | None = None
                 ) -> str:
    """Fixed-width text table, printed by every bench."""
    if widths is None:
        widths = []
        for col in range(len(header)):
            cells = [str(header[col])] + [str(row[col]) for row in rows]
            widths.append(max(len(c) for c in cells) + 2)
    lines = [f"== {title} =="]
    lines.append("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("-" * sum(widths))
    for row in rows:
        lines.append("".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_trace_rows(title: str, rows) -> str:
    """The six-column table of :class:`TraceRow` rows (Figs. 11 and 12,
    ``repro campaign``)."""
    return format_table(
        title,
        ("trace", "scheme", "RTT>200ms", "frame>400ms", "fps<10",
         "bitrate"),
        [(r.trace, r.scheme, pct(r.rtt_tail_ratio),
          pct(r.delayed_frame_ratio), pct(r.low_fps_ratio),
          mbps(r.mean_bitrate_bps)) for r in rows])


def pct(value: float, digits: int = 2) -> str:
    return f"{value * 100:.{digits}f}%"


def ms(value: float, digits: int = 0) -> str:
    return f"{value * 1000:.{digits}f}ms"


def mbps(value: float, digits: int = 2) -> str:
    return f"{value / 1e6:.{digits}f}Mbps"


def seconds(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}s"
