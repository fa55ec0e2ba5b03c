"""Oracles for the packed result series: the per-sample bodies they replace.

Before every recorder column and ``FlowSummary`` series was an
``array('d')``, the post-warm-up cut walked each sample in Python:

* ``_filtered_rtt`` / ``_filtered_frames`` (``topology/builder.py``)
  re-recorded every sample stamped at or after the warm-up instant into
  a fresh recorder;
* ``RateRecorder.mean_rate`` averaged the rates whose stamp is at or
  after ``start``, filtered by a list comprehension;
* ``FlowSummary.as_dict`` emitted the series as they were stored:
  Python lists (the CCA-perceived RTT pair, since deleted from the
  summary, is taken out here too).

The bodies below are kept verbatim (``mean_rate`` and ``as_dict`` as
free functions over the object they were methods of).
``tests/test_packed_series.py`` requires ``since`` and the packed
``mean_rate`` to match them bit for bit, and every payload built from
the packed series to serialize exactly as the list-built one did.
"""

from repro.metrics.recorder import FrameRecorder, RttRecorder


def _filtered_rtt(recorder: RttRecorder, warmup: float) -> RttRecorder:
    out = RttRecorder()
    for t, r in zip(recorder.times, recorder.rtts):
        if t >= warmup:
            out.record(t, r)
    return out


def _filtered_frames(recorder: FrameRecorder, warmup: float) -> FrameRecorder:
    out = FrameRecorder()
    for t, d in zip(recorder.frame_times, recorder.frame_delays):
        if t >= warmup:
            out.record(t, d)
    return out


def mean_rate(self, start: float = 0.0) -> float:
    values = [r for t, r in zip(self.times, self.rates) if t >= start]
    if not values:
        return 0.0
    return sum(values) / len(values)


def flow_as_dict(self) -> dict:
    """``FlowSummary.as_dict`` over list series (``self`` holds lists)."""
    return {"rtt_times": self.rtt_times,
            "rtt_values": self.rtt_values,
            "frame_times": self.frame_times,
            "frame_delays": self.frame_delays,
            "goodput_bps": self.goodput_bps,
            "mean_bitrate_bps": self.mean_bitrate_bps}
