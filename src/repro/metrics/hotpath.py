"""Hot-path profiling counters for the per-packet Zhuge datapath.

The estimators in :mod:`repro.core.sliding_window` each count their
operations in a plain ``.ops`` int (one add per record/query — cheap
enough to leave on permanently), and the Fortune Teller / Feedback
Updater keep their own prediction/ACK counters. This module
gathers those into per-component snapshots so Fig. 21's one
hand-driven datapath (:mod:`repro.experiments.drivers.overhead`) can
report ops per component next to its per-packet cost, without timers
inside the datapath.

Collection is one-directional: this module reads core objects by duck
typing and imports nothing from ``repro.core``, so the core package
stays free of metrics dependencies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class HotpathStats:
    """Counters of one datapath component (a teller or an updater)."""

    component: str
    predictions: int = 0
    # No teller caches a prediction, so this stays 0; the ledger
    # workloads still read it.
    cache_hits: int = 0
    estimator_ops: int = 0
    acks_delayed: int = 0
    pending_deltas: int = 0
    tokens_outstanding: float = 0.0

    def merged_with(self, other: "HotpathStats",
                    component: str = "total") -> "HotpathStats":
        return HotpathStats(
            component=component,
            predictions=self.predictions + other.predictions,
            cache_hits=self.cache_hits + other.cache_hits,
            estimator_ops=self.estimator_ops + other.estimator_ops,
            acks_delayed=self.acks_delayed + other.acks_delayed,
            pending_deltas=self.pending_deltas + other.pending_deltas,
            tokens_outstanding=(self.tokens_outstanding
                                + other.tokens_outstanding),
        )

    def as_dict(self) -> dict:
        return asdict(self)


def snapshot_fortune_teller(teller, component: str = "fortune_teller"
                            ) -> HotpathStats:
    """Counters of one Fortune Teller and its four estimators."""
    estimator_ops = (teller.tx_rate.ops + teller.tx_rate_long.ops
                     + teller.dequeue_intervals.ops
                     + teller.burst_tracker.ops)
    return HotpathStats(
        component=component,
        predictions=teller.predictions_made,
        estimator_ops=estimator_ops,
    )


def snapshot_updater(updater, component: str = "feedback_updater"
                     ) -> HotpathStats:
    """Counters of one out-of-band Feedback Updater."""
    return HotpathStats(
        component=component,
        estimator_ops=updater.delta_history.ops,
        acks_delayed=updater.acks_delayed,
        pending_deltas=updater.pending_delta_count,
        tokens_outstanding=updater.outstanding_tokens,
    )


def snapshot_ap(ap) -> list[HotpathStats]:
    """Per-component snapshots of a whole :class:`ZhugeAP` datapath.

    One entry for the shared Fortune Teller, one per per-flow teller
    (flow-isolating disciplines), one per out-of-band updater, plus a
    ``total`` rollup at the end.
    """
    snapshots = [snapshot_fortune_teller(ap.fortune_teller)]
    for flow, teller in getattr(ap, "_flow_tellers", {}).items():
        snapshots.append(snapshot_fortune_teller(
            teller, component=f"fortune_teller[{flow.dst_port}]"))
    for flow, updater in getattr(ap, "_oob", {}).items():
        snapshots.append(snapshot_updater(
            updater, component=f"feedback_updater[{flow.dst_port}]"))
    total = HotpathStats(component="total")
    for snap in snapshots:
        total = total.merged_with(snap)
    snapshots.append(total)
    return snapshots

