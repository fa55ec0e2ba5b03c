"""Zhuge: the paper's primary contribution.

* :class:`FortuneTeller` predicts each downlink packet's remaining delay
  on arrival at the AP (qLong + qShort + tx, §4).
* :class:`OutOfBandFeedbackUpdater` delays uplink ACKs by sampled delay
  deltas with a token bank and order preservation (§5.2, Algorithms 1-2).
* :class:`InBandFeedbackUpdater` constructs TWCC feedback at the AP from
  predicted arrival times and suppresses client feedback (§5.3).
* :class:`ZhugeAP` is the middlebox wiring both into an access point.
"""

from repro.core.sliding_window import (
    SlidingWindowRate,
    DequeueIntervalEstimator,
    BurstSizeTracker,
    DelayDeltaHistory,
)
from repro.core.fortune_teller import FortuneTeller, NaiveQueueEstimator
from repro.core.feedback_updater import (
    FeedbackKind,
    OutOfBandFeedbackUpdater,
)
from repro.core.inband import InBandFeedbackUpdater
from repro.core.zhuge_ap import ZhugeAP

__all__ = [
    "SlidingWindowRate",
    "DequeueIntervalEstimator",
    "BurstSizeTracker",
    "DelayDeltaHistory",
    "FortuneTeller",
    "NaiveQueueEstimator",
    "FeedbackKind",
    "OutOfBandFeedbackUpdater",
    "InBandFeedbackUpdater",
    "ZhugeAP",
]
