"""Streaming, order-insensitive fleet merge for sharded campaigns.

A 1000-AP city produces tens of millions of post-warmup delay samples;
holding every shard's :class:`~repro.campaign.summary.ScenarioSummary`
until the end would defeat the point of sharding. The
:class:`FleetAccumulator` consumes summaries *as shards finish* (via
``run_campaign(consume=...)``) and keeps only:

* per-shard :class:`DelayCdfSketch` histograms (integer bucket counts,
  bounded size, exactly mergeable), plus the raw sample lists only
  while the fleet-wide total stays under ``sample_budget`` — small
  fleets get exact percentiles, huge ones degrade to the sketch's
  bounded relative error without a memory cliff;
* exact integer tail counts (RTT > 200 ms, frame delay > 400 ms) and
  event/transition tallies;
* per-flow goodput moments as :class:`fractions.Fraction` — exact
  rationals, so the fleet totals and Jain fairness are independent of
  shard completion order and bit-identical between a sharded run and
  an unsharded one.

Everything folds commutatively or is folded in shard-index order at
:meth:`~FleetAccumulator.finalize`, so the resulting
:class:`FleetSummary` — and its :meth:`~FleetSummary.digest` — is a
pure function of the per-shard summaries, not of scheduling. The
digest deliberately excludes the shard count: a sharded city and the
same city simulated whole must digest identically (pinned in CI by the
``city-smoke`` job).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import struct
from array import array
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Dict, Optional

from repro.campaign.summary import ScenarioSummary
from repro.metrics.recorder import (FRAME_DELAY_THRESHOLD, RTT_TAIL_THRESHOLD,
                                    column)
from repro.metrics.stats import ranked_quantiles

#: Delays below this resolve to bucket 0 (0.1 ms).
SKETCH_FLOOR = 1e-4
#: Geometric bucket growth: ~2% relative resolution, < 800 buckets to
#: cover 0.1 ms .. 10 minutes.
SKETCH_GROWTH = 1.02

_LOG_GROWTH = math.log(SKETCH_GROWTH)


class DelayCdfSketch:
    """Mergeable log-bucketed delay histogram.

    Bucket index is a pure function of the value (geometric buckets of
    ``SKETCH_GROWTH`` relative width above ``SKETCH_FLOOR``), counts
    are integers, and :meth:`merge` is integer addition — so any
    partition of a sample population, merged in any order, yields the
    identical sketch. Quantile queries return the bucket's geometric
    midpoint: within ~1% of the true value, which is far below the
    natural seed-to-seed variance of a fleet percentile.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= SKETCH_FLOOR:
            return 0
        return 1 + int(math.log(value / SKETCH_FLOOR) / _LOG_GROWTH)

    @staticmethod
    def bucket_edges(index: int) -> tuple:
        """Exact value range ``(lo, hi)`` of one bucket:
        ``bucket_of(v) == index`` exactly when ``lo <= v < hi``
        (bucket 0 reaches down to ``-inf``)."""
        lo = -math.inf if index == 0 else _lower_edge(index)
        return lo, _lower_edge(index + 1)

    @staticmethod
    def bucket_value(index: int) -> float:
        """Geometric midpoint of one bucket (bucket 0 -> the floor)."""
        if index <= 0:
            return SKETCH_FLOOR
        return SKETCH_FLOOR * SKETCH_GROWTH ** (index - 0.5)

    def add(self, value: float) -> None:
        index = self.bucket_of(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += 1

    def add_many(self, values, above: float = math.inf) -> int:
        """Add every value; return how many exceed ``above`` (the fleet's
        exact tail counts, taken in the same pass)."""
        counts = self.counts
        bucket_of = self.bucket_of
        tail = 0
        for value in values:
            if value > above:
                tail += 1
            index = bucket_of(value)
            counts[index] = counts.get(index, 0) + 1
        self.total += len(values)
        return tail

    def merge(self, other: "DelayCdfSketch") -> None:
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.total += other.total

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (percent, 0..100)."""
        if not self.total:
            return 0.0
        rank = q / 100.0 * (self.total - 1)
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen > rank:
                return self.bucket_value(index)
        return self.bucket_value(max(self.counts))

    def as_dict(self) -> dict:
        return {"floor": SKETCH_FLOOR, "growth": SKETCH_GROWTH,
                "counts": {str(i): self.counts[i]
                           for i in sorted(self.counts)}}

    @classmethod
    def from_dict(cls, payload: dict) -> "DelayCdfSketch":
        sketch = cls()
        sketch.counts = {int(i): n for i, n in payload["counts"].items()}
        sketch.total = sum(sketch.counts.values())
        return sketch


def _lower_edge(index: int) -> float:
    """Smallest double in bucket ``index`` or above (``index >= 1``):
    the closed form's rounding is walked off one ulp at a time until
    :meth:`DelayCdfSketch.bucket_of` flips."""
    bucket_of = DelayCdfSketch.bucket_of
    edge = SKETCH_FLOOR * math.exp((index - 1) * _LOG_GROWTH)
    while bucket_of(edge) >= index:
        edge = math.nextafter(edge, -math.inf)
    while bucket_of(edge) < index:
        edge = math.nextafter(edge, math.inf)
    return edge


#: Most samples :func:`exact_quantiles` lists and sorts at once (~40 B
#: each); above every wanted bucket of ``city_grid_sharded`` (7.7 k).
SELECT_CAP = 16_384
#: Parts a crowded range is tallied in per pass over the columns.
SELECT_SPLITS = 256


def _order_key(value: float) -> int:
    """An int that orders as the double ``value`` does, one step per
    double (``-0.0`` and ``0.0`` share one)."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return bits if bits < 1 << 63 else (1 << 63) - bits


def _from_order_key(key: int) -> float:
    bits = key if key >= 0 else (1 << 63) - key
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def exact_quantiles(sketch: DelayCdfSketch, columns: list,
                    qs) -> list:
    """``quantiles`` over the concatenation of ``columns``, bit for
    bit, without pooling or sorting them.

    ``sketch`` must count exactly the samples of ``columns``. Its
    integer bucket counts are a rank index: they name the bucket that
    holds each wanted rank and how many samples lie below it, so only
    that bucket's samples are picked out (by comparison with its exact
    edges, scanning ``columns`` in order, so that equal samples such as
    ``0.0`` and ``-0.0`` keep the pooled sort's order) and sorted. A
    bucket of more than :data:`SELECT_CAP` samples is narrowed first:
    each pass tallies its range in :data:`SELECT_SPLITS` parts of equal
    width in :func:`_order_key` (no list) and keeps the rank's part,
    until that holds at most the cap or one double, whose equal samples
    are read in scan order. A bucket whose samples disagree with its
    count raises ``RuntimeError``.
    """
    buckets = sorted(sketch.counts)
    ends = list(itertools.accumulate(sketch.counts[b] for b in buckets))
    picked: dict = {}   # the last range listed, sorted: ranks ascend
    tallies: dict = {}  # each crowded range's parts, for the next rank

    def within(lo: float, hi: float):
        return (v for shard in columns for v in shard if lo <= v < hi)

    def value_at(rank: int) -> float:
        slot = bisect.bisect_right(ends, rank)
        count = sketch.counts[buckets[slot]]
        rank -= ends[slot] - count
        lo, hi = DelayCdfSketch.bucket_edges(buckets[slot])
        while count > SELECT_CAP and _order_key(hi) - _order_key(lo) > 1:
            if (lo, hi) not in tallies:
                lo_key, hi_key = _order_key(lo), _order_key(hi)
                edges = [_from_order_key(
                    lo_key + (hi_key - lo_key) * i // SELECT_SPLITS)
                    for i in range(SELECT_SPLITS + 1)]
                tally = [0] * SELECT_SPLITS
                for v in within(lo, hi):
                    tally[bisect.bisect_right(edges, v, 1,
                                              SELECT_SPLITS) - 1] += 1
                if sum(tally) != count:
                    raise RuntimeError(
                        f"sketch bucket [{lo!r}, {hi!r}) counts {count} "
                        f"samples, the columns hold {sum(tally)}")
                tallies[lo, hi] = edges, tally
            edges, tally = tallies[lo, hi]
            part = 0
            while rank >= tally[part]:
                rank -= tally[part]
                part += 1
            lo, hi, count = edges[part], edges[part + 1], tally[part]
        if count > SELECT_CAP:
            return next(itertools.islice(within(lo, hi), rank, None))
        if (lo, hi) not in picked:
            picked.clear()
            picked[lo, hi] = values = sorted(within(lo, hi))
            if len(values) != count:
                raise RuntimeError(
                    f"sketch bucket [{lo!r}, {hi!r}) counts {count} "
                    f"samples, the columns hold {len(values)}")
        return picked[lo, hi][rank]

    return ranked_quantiles(value_at, sketch.total, qs)


@dataclass
class FleetSummary:
    """Fleet-wide rollup of one (possibly sharded) city campaign."""

    shards: int = 0
    flows: int = 0
    rtt_samples: int = 0
    frame_samples: int = 0
    #: True when percentiles are exact over the pooled samples,
    #: False when the fleet exceeded the sample budget and the
    #: sketch answered instead.
    exact: bool = True
    rtt_p50: float = 0.0
    rtt_p95: float = 0.0
    rtt_p99: float = 0.0
    frame_p99: float = 0.0
    #: Fraction of RTT samples above 200 ms (always exact: counted).
    rtt_tail_ratio: float = 0.0
    #: Fraction of frame delays above 400 ms (always exact: counted).
    delayed_frame_ratio: float = 0.0
    goodput_bps_total: float = 0.0
    mean_bitrate_bps_total: float = 0.0
    #: Jain fairness over every RTC flow's goodput, fleet-wide.
    fairness: float = 1.0
    events_processed: int = 0
    packets_processed: int = 0
    ap_packets: int = 0
    fault_phases: int = 0
    watchdog_transitions: int = 0
    control_transitions: int = 0
    steering_moves: int = 0
    rtt_sketch: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        """sha256 over everything *except* the shard count and the
        engine's dispatch telemetry.

        A sharded campaign and the same city simulated whole (or with
        a different ``--shard-aps``) must produce the same digest —
        that equality is the bit-exactness contract of the sharder.
        ``events_processed`` is likewise excluded (digest contract v2):
        it counts engine dispatches, which move whenever a component
        changes how it dispatches (not what it computes);
        ``packets_processed`` pins the trajectory instead.
        """
        payload = self.as_dict()
        del payload["shards"]
        del payload["events_processed"]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def lines(self, label: str = "fleet") -> list:
        mode = "exact" if self.exact else "sketch (~2%)"
        return [
            f"--- {label} ---",
            f"  shards / flows:     {self.shards:6d} / {self.flows}",
            f"  delay samples:      {self.rtt_samples:6d} "
            f"({mode} percentiles)",
            f"  P50 / P95 / P99 RTT:"
            f"{self.rtt_p50 * 1000:6.0f} ms /"
            f"{self.rtt_p95 * 1000:5.0f} ms /"
            f"{self.rtt_p99 * 1000:5.0f} ms",
            f"  RTT > 200 ms:       {self.rtt_tail_ratio * 100:6.2f}%",
            f"  frame delay >400ms: "
            f"{self.delayed_frame_ratio * 100:6.2f}%",
            f"  goodput (fleet):    "
            f"{self.goodput_bps_total / 1e6:6.1f} Mbps",
            f"  Jain fairness:      {self.fairness:6.3f}",
            f"  control transitions:{self.control_transitions:6d} "
            f"(+{self.steering_moves} steers)",
            f"  digest:             {self.digest()[:16]}",
        ]


@dataclass
class _ShardRecord:
    """What the accumulator retains per shard until finalize."""

    rtt_sketch: DelayCdfSketch = field(default_factory=DelayCdfSketch)
    frame_sketch: DelayCdfSketch = field(default_factory=DelayCdfSketch)
    rtt_values: Optional[array] = field(default_factory=column)
    frame_values: Optional[array] = field(default_factory=column)
    rtt_tail: int = 0
    frame_tail: int = 0
    flows: int = 0
    goodput_sum: Fraction = Fraction(0)
    goodput_sq_sum: Fraction = Fraction(0)
    bitrate_sum: Fraction = Fraction(0)
    events_processed: int = 0
    packets_processed: int = 0
    ap_packets: int = 0
    fault_phases: int = 0
    watchdog_transitions: int = 0
    control_transitions: int = 0
    steering_moves: int = 0


class FleetAccumulator:
    """Incremental, order-insensitive fold of per-shard summaries.

    ``add`` may be called from a campaign ``consume`` callback in any
    completion order; records are keyed by shard index and folded in
    index order at :meth:`finalize`, so the result is independent of
    scheduling. Raw sample lists are dropped fleet-wide the moment the
    total crosses ``sample_budget`` (the sketches keep answering), so
    peak memory is bounded no matter how large the city is.
    """

    #: Default exact-percentile budget: 2M samples, packed as C doubles
    #: ≈ 16 MB (as Python floats in lists it would be ≈ 64 MB), far
    #: below the per-packet state of even one mid-size shard.
    #: ``finalize`` lists at most ``SELECT_CAP`` samples at once, where
    #: pooling and sorting a log-normal fleet of 1.98M took 81 MiB.
    DEFAULT_SAMPLE_BUDGET = 2_000_000

    def __init__(self, sample_budget: int = DEFAULT_SAMPLE_BUDGET) -> None:
        self.sample_budget = sample_budget
        self._records: Dict[int, _ShardRecord] = {}
        self._samples = 0
        self._collapsed = False

    @property
    def exact(self) -> bool:
        return not self._collapsed

    def add(self, shard_index: int, summary: ScenarioSummary) -> None:
        if shard_index in self._records:
            raise ValueError(f"shard {shard_index} added twice")
        record = _ShardRecord()
        for flow in summary.flows:
            record.rtt_tail += record.rtt_sketch.add_many(
                flow.rtt_values, RTT_TAIL_THRESHOLD)
            record.frame_tail += record.frame_sketch.add_many(
                flow.frame_delays, FRAME_DELAY_THRESHOLD)
            if not self._collapsed:
                record.rtt_values.extend(flow.rtt_values)
                record.frame_values.extend(flow.frame_delays)
            record.flows += 1
            goodput = Fraction(flow.goodput_bps)
            record.goodput_sum += goodput
            record.goodput_sq_sum += goodput * goodput
            record.bitrate_sum += Fraction(flow.mean_bitrate_bps)
        record.events_processed = summary.events_processed
        record.packets_processed = summary.packets_processed
        record.ap_packets = summary.ap_packets
        record.fault_phases = len(summary.fault_log)
        record.watchdog_transitions = len(summary.watchdog_transitions)
        record.control_transitions = len(summary.control_transitions)
        record.steering_moves = len(summary.steering_moves)
        self._records[shard_index] = record
        self._samples += record.rtt_sketch.total + record.frame_sketch.total
        if not self._collapsed and self._samples > self.sample_budget:
            self._collapse()

    def _collapse(self) -> None:
        """Drop raw samples fleet-wide; sketches carry on."""
        self._collapsed = True
        for record in self._records.values():
            record.rtt_values = None
            record.frame_values = None

    def finalize(self) -> FleetSummary:
        """Fold all records (in shard-index order) into a FleetSummary."""
        rtt_sketch = DelayCdfSketch()
        frame_sketch = DelayCdfSketch()
        rtt_columns = []
        frame_columns = []
        goodput_sum = Fraction(0)
        goodput_sq_sum = Fraction(0)
        bitrate_sum = Fraction(0)
        out = FleetSummary(shards=len(self._records),
                           exact=not self._collapsed)
        for index in sorted(self._records):
            record = self._records[index]
            rtt_sketch.merge(record.rtt_sketch)
            frame_sketch.merge(record.frame_sketch)
            rtt_columns.append(record.rtt_values)
            frame_columns.append(record.frame_values)
            out.flows += record.flows
            out.events_processed += record.events_processed
            out.packets_processed += record.packets_processed
            out.ap_packets += record.ap_packets
            out.fault_phases += record.fault_phases
            out.watchdog_transitions += record.watchdog_transitions
            out.control_transitions += record.control_transitions
            out.steering_moves += record.steering_moves
            goodput_sum += record.goodput_sum
            goodput_sq_sum += record.goodput_sq_sum
            bitrate_sum += record.bitrate_sum
        out.rtt_samples = rtt_sketch.total
        out.frame_samples = frame_sketch.total
        rtt_tail = sum(r.rtt_tail for r in self._records.values())
        frame_tail = sum(r.frame_tail for r in self._records.values())
        if out.rtt_samples:
            out.rtt_tail_ratio = float(
                Fraction(rtt_tail, out.rtt_samples))
        if out.frame_samples:
            out.delayed_frame_ratio = float(
                Fraction(frame_tail, out.frame_samples))
        if self._collapsed:
            out.rtt_p50 = rtt_sketch.quantile(50)
            out.rtt_p95 = rtt_sketch.quantile(95)
            out.rtt_p99 = rtt_sketch.quantile(99)
            out.frame_p99 = frame_sketch.quantile(99)
        else:
            if out.rtt_samples:
                out.rtt_p50, out.rtt_p95, out.rtt_p99 = exact_quantiles(
                    rtt_sketch, rtt_columns, (50, 95, 99))
            if out.frame_samples:
                (out.frame_p99,) = exact_quantiles(
                    frame_sketch, frame_columns, (99,))
        # Exact rational arithmetic end-to-end; one correctly-rounded
        # float conversion at the edge keeps the digest independent of
        # shard boundaries and completion order.
        out.goodput_bps_total = float(goodput_sum)
        out.mean_bitrate_bps_total = float(bitrate_sum)
        if out.flows and goodput_sq_sum:
            fairness = (goodput_sum * goodput_sum
                        / (out.flows * goodput_sq_sum))
            out.fairness = min(1.0, float(fairness))
        out.rtt_sketch = rtt_sketch.as_dict()
        return out
