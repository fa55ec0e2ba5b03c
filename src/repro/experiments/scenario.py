"""Scenario adapter: legacy configs over the declarative topology layer.

One :class:`ScenarioConfig` describes a full experiment: protocol stack
(RTP/GCC or TCP/{Copa,BBR,CUBIC,ABC}), AP mode (plain, Zhuge, FastAck,
ABC router), queue discipline, bandwidth trace, competitors, and
interferers. :func:`run_scenario` builds the topology, runs it, and
returns the recorders every figure reads.

Since the :mod:`repro.topology` refactor this module is a thin adapter:
a config without an explicit ``topology`` is converted into the
canonical single-AP :class:`~repro.topology.spec.TopologySpec` (paper
Fig. 1)::

    sender --WAN down--> [AP: Zhuge] --downlink queue--> wireless --> client
    sender <--WAN up---- [AP: Zhuge] <---uplink wireless (queue)--- client

and materialized by :class:`~repro.topology.builder.TopologyBuilder` —
the same engine that runs multi-AP graphs. The historical
``_ScenarioBuilder`` name is the builder itself; result types and the
goodput helper re-export from :mod:`repro.topology.builder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.control.spec import ControlSpec
from repro.faults.spec import FaultPlan
from repro.obs.session import TraceConfig
from repro.topology.builder import (FlowResult, ScenarioResult,
                                    TopologyBuilder, _BulkFlowAdapter,
                                    _flow_goodput)
from repro.topology.spec import TopologySpec, single_ap_topology
from repro.traces.trace import BandwidthTrace

__all__ = [
    "ScenarioConfig", "FlowResult", "ScenarioResult", "run_scenario",
]


@dataclass
class ScenarioConfig:
    """Everything one experiment run needs."""

    trace: BandwidthTrace
    protocol: str = "rtp"          # "rtp" | "tcp" | "quic"
    cca: str = "gcc"               # rtp: "gcc"; tcp: copa/bbr/cubic/abc
    ap_mode: str = "none"          # none | zhuge | fastack | abc
    queue_kind: str = "fifo"       # fifo | codel | fq_codel
    duration: float = 60.0
    seed: int = 1
    wan_delay: float = 0.020       # one-way WAN latency (sender <-> AP)
    uplink_scale: float = 0.5      # uplink wireless capacity vs trace
    queue_capacity: int = 375_000  # ~1 Mbit of buffer (bufferbloat-ish)
    fps: float = 24.0
    initial_bps: float = 1e6
    max_bps: float = 4e6   # encoder cap (paper: ~2 Mbps avg video)
    competitors: int = 0           # CUBIC bulk flows sharing the AP queue
    competitor_period: Optional[float] = None  # scp on/off period (§7.5)
    interferers: int = 0           # stations on other APs, same channel
    mcs_switch_period: Optional[float] = None  # §7.5 `mcs` scenario
    record_predictions: bool = False
    app: str = "video"             # "video" | "bulk" (Fig. 4 CCA study)
    paced_sender: bool = False     # spread frame packets (burstiness ablation)
    link_kind: str = "wifi"        # "wifi" (AMPDU bursts) | "cellular" (TTI slots)
    rtc_flows: int = 1             # fairness experiments use 2
    zhuge_flow_mask: Optional[tuple[bool, ...]] = None  # which RTC flows get Zhuge
    warmup: float = 5.0            # metrics ignore the first seconds
    trace_config: Optional[TraceConfig] = None  # event tracing (repro.obs)
    faults: Optional[FaultPlan] = None  # fault injection (repro.faults)
    #: Explicit experiment graph (repro.topology). ``None`` — the legacy
    #: default — means the canonical single-AP topology derived from the
    #: fields above; a multi-AP spec takes over nodes/edges/flows while
    #: the scenario fields keep supplying protocol, trace, and timing
    #: defaults.
    topology: Optional[TopologySpec] = None
    #: Adaptive control plane (repro.control). ``None`` — the legacy
    #: default — runs the static configuration; a spec attaches a
    #: per-AP :class:`~repro.control.controller.ZhugeController` and,
    #: optionally, the fleet :class:`~repro.control.steering.SteeringDaemon`.
    control: Optional[ControlSpec] = None

    def canonical_topology(self) -> TopologySpec:
        """The graph this config runs on (explicit or derived)."""
        return self.topology or single_ap_topology(self)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build the topology for ``config``, simulate, and collect results."""
    builder = _ScenarioBuilder(config)
    return builder.run()


#: The scenario builder *is* the topology builder; the historical name
#: stays importable for tests and tools that reach into builder state.
_ScenarioBuilder = TopologyBuilder
