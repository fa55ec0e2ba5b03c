"""Declarative multi-AP topologies.

:mod:`repro.topology.spec` holds the pure-data, content-hashable
description (nodes, edges, flows); :mod:`repro.topology.builder` lowers
a :class:`~repro.campaign.spec.ScenarioSpec` — its trace, then its
graph (``spec.topology`` or :func:`single_ap_topology`) — into the live
simulation graph.
"""

from repro.topology.spec import (AP_MODES, EDGE_KINDS, NODE_ROLES,
                                 EdgeSpec, FlowSpec, NodeSpec, TopologySpec,
                                 first_mile_topology, interference_topology,
                                 roaming_topology, single_ap_topology)
from repro.topology.builder import TopologyBuilder

__all__ = [
    "AP_MODES", "EDGE_KINDS", "NODE_ROLES",
    "NodeSpec", "EdgeSpec", "FlowSpec", "TopologySpec",
    "single_ap_topology", "interference_topology", "roaming_topology",
    "first_mile_topology", "TopologyBuilder",
]
