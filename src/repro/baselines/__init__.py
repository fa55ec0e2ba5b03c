"""AP-side baselines Zhuge is compared against."""

from repro.baselines.fastack import FastAckAP, FastAckProxy
from repro.baselines.passthrough import PassthroughAP

__all__ = ["FastAckAP", "FastAckProxy", "PassthroughAP"]
