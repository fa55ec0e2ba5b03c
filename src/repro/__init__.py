"""repro: reproduction of Zhuge (SIGCOMM 2022).

Zhuge achieves consistent low latency for wireless real-time
communications by shortening the congestion-control loop at the
last-mile access point: a Fortune Teller predicts each packet's delay on
AP arrival, and a Feedback Updater carries that prediction back to the
sender immediately -- by delaying ACKs (out-of-band protocols) or by
constructing TWCC feedback at the AP (in-band protocols).

Quick start::

    from repro import ScenarioSpec, TopologyBuilder, TraceSpec

    spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=30,
                                                   seed=1),
                        protocol="rtp", ap_mode="zhuge", duration=30)
    result = TopologyBuilder(spec).run()
    print(result.rtt.tail_ratio(), result.frames.delayed_ratio())

A :class:`ScenarioSpec` is the one description of a run: the same spec
goes to a campaign (:func:`run_specs`), into the result cache, and to
the builder.
"""

from repro.core import (
    FortuneTeller,
    OutOfBandFeedbackUpdater,
    InBandFeedbackUpdater,
    ZhugeAP,
    FeedbackKind,
)
from repro.campaign import (
    ScenarioSpec,
    ScenarioSummary,
    TraceSpec,
    run_campaign,
    run_specs,
)
from repro.topology.builder import TopologyBuilder
from repro.topology.result import ScenarioResult
from repro.traces import BandwidthTrace, make_trace, ethernet_trace

__version__ = "1.0.0"

__all__ = [
    "FortuneTeller",
    "OutOfBandFeedbackUpdater",
    "InBandFeedbackUpdater",
    "ZhugeAP",
    "FeedbackKind",
    "ScenarioResult",
    "TopologyBuilder",
    "ScenarioSpec",
    "ScenarioSummary",
    "TraceSpec",
    "run_campaign",
    "run_specs",
    "BandwidthTrace",
    "make_trace",
    "ethernet_trace",
    "__version__",
]
