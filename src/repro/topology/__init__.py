"""Declarative multi-AP topologies.

:mod:`repro.topology.spec` holds the pure-data, content-hashable
description (nodes, edges, flows) and :mod:`repro.topology.presets`
the canonical graphs; :mod:`repro.topology.builder` lowers a
:class:`~repro.campaign.spec.ScenarioSpec` — its trace, then its graph
(``spec.topology`` or :func:`single_ap_topology`) — into the live
simulation graph, whose routes, receivers and roaming belong to
:mod:`repro.topology.forwarding`; :mod:`repro.topology.result` holds
what a run returns.
"""

from repro.topology.spec import (AP_MODES, EDGE_KINDS, NODE_ROLES,
                                 EdgeSpec, FlowSpec, NodeSpec, TopologySpec)
from repro.topology.presets import (first_mile_topology,
                                    interference_topology, roaming_topology,
                                    single_ap_topology)
from repro.topology.builder import TopologyBuilder

__all__ = [
    "AP_MODES", "EDGE_KINDS", "NODE_ROLES",
    "NodeSpec", "EdgeSpec", "FlowSpec", "TopologySpec",
    "single_ap_topology", "interference_topology", "roaming_topology",
    "first_mile_topology", "TopologyBuilder",
]
