"""Schedules a :class:`FaultPlan` onto a live scenario.

The injector is pure orchestration: it owns no link or AP state, it
only flips the fault hooks the datapath components already expose
(``link.block()/unblock()``, ``link.fault_drop``,
``channel.fault_scale``, ``zhuge.reset_state()``) and roams through the
forwarding layer's ``begin_roam`` / ``complete_roam`` at the plan's
scheduled times. All stochastic behaviour (loss-burst
coin flips) draws from per-fault forked streams of the plan seed, so
the same plan produces the same drop pattern regardless of how many
other faults run, and regardless of process (serial, pool, cache
replay).

Overlap semantics are last-writer-wins per (kind, target): the *end* of
whichever window fires last restores the healthy value. Plans that need
stacked same-kind faults should use disjoint windows.
"""

from __future__ import annotations

from repro.faults.spec import FaultPlan, FaultSpec
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom


class FaultInjector:
    """Arms every fault in ``plan`` against a built topology.

    ``mover`` is the topology's
    :class:`~repro.topology.forwarding.Forwarding`: faults aim at its
    ``edges`` and ``aps``, and its ``begin_roam`` / ``complete_roam``
    perform every roam. A fault without an edge acts on the first
    enabled wireless edge out of (``down``) and into (``up``) an AP, a
    roam without a node moves the client behind that ``down`` edge back
    onto the same AP, and an untargeted ``ap_reset`` acts on the first
    Zhuge AP in node order; where there is no such edge or AP (e.g. a
    passthrough scenario has no Zhuge state) that part of the fault
    does nothing.

    A fault aimed at a name the topology lacks is an error: arming
    raises ``ValueError`` for an ``edge`` that is unknown or wired, an
    ``ap_reset`` node that is not an AP, a ``roam`` node with no
    wireless attachment, or a ``roam`` target that is not an AP.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, *, mover,
                 trace=None):
        self.sim = sim
        self.plan = plan
        self.trace = trace
        self.mover = mover
        self.edges = mover.edges
        self.aps = mover.aps
        #: The untargeted directions' edges, fixed when the plan is armed.
        self._directions = {direction: mover.ap_edge(direction)
                            for direction in ("down", "up")}
        self.zhuge = next((ap_rt.zhuge for ap_rt in self.aps.values()
                           if ap_rt.zhuge is not None), None)
        self.rng = DeterministicRandom(plan.seed)
        #: (time, kind, phase) for every executed fault phase, in order.
        self.log: list[tuple[float, str, str]] = []
        self.loss_dropped = 0
        self.roam_flushed = 0
        self._track = "faults"
        for fault in plan.faults:
            self._check(fault)
        self._arm()

    # -- scheduling ----------------------------------------------------------

    def _arm(self) -> None:
        for index, fault in enumerate(self.plan.faults):
            self.sim.call_at(
                fault.start,
                lambda fault=fault, index=index: self._begin(fault, index))
            if fault.duration > 0:
                self.sim.call_at(
                    fault.end,
                    lambda fault=fault, index=index: self._end(fault, index))

    def _check(self, fault: FaultSpec) -> None:
        edge = self.edges.get(fault.edge)
        if fault.edge and (edge is None or not edge.spec.wireless):
            problem = f"edge {fault.edge!r} is unknown or wired"
        elif (fault.kind == "ap_reset" and fault.node
                and fault.node not in self.aps):
            problem = f"node {fault.node!r} is not an AP"
        elif (fault.kind == "roam" and fault.node
                and not self.mover.attached_aps(fault.node)):
            problem = f"node {fault.node!r} has no wireless attachment"
        elif fault.to and fault.to not in self.aps:
            problem = f"roam target {fault.to!r} is not an AP"
        else:
            return
        raise ValueError(f"{fault.kind} fault at {fault.start:g} s: "
                         f"{problem}")

    def _edges_for(self, target: str, edge: str = ""):
        """(label, edge runtime) pairs a fault acts on: its named edge,
        else the ``down``/``up`` edges ``target`` selects."""
        if edge:
            return [(edge, self.edges[edge])]
        return [(direction, er) for direction, er in self._directions.items()
                if er is not None and target in (direction, "both")]

    def _roam_ends(self, fault: FaultSpec):
        """(client, AP) a roam moves: its ``node`` onto ``to``, else the
        client behind the ``down`` edge back onto that edge's AP;
        ``None`` when there is no such edge."""
        if fault.node:
            return fault.node, fault.to
        down = self._directions["down"]
        return (down.spec.dst, down.spec.src) if down is not None else None

    # -- fault phases --------------------------------------------------------

    def _begin(self, fault: FaultSpec, index: int) -> None:
        self.log.append((self.sim.now, fault.kind, "begin"))
        if self.trace is not None:
            if fault.duration > 0:
                self.trace.fault_window(self._track, fault.kind, index,
                                        fault.duration, fault.target,
                                        fault.magnitude)
            self.trace.fault_phase(self._track, fault.kind, index, "begin")
        edges = self._edges_for(fault.target, fault.edge)
        if fault.kind == "blackout":
            for _, er in edges:
                er.link.block()
        elif fault.kind == "rate_crash":
            for _, er in edges:
                er.channel.fault_scale = fault.magnitude
        elif fault.kind == "loss_burst":
            for label, er in edges:
                er.link.fault_drop = self._loss_predicate(fault, index, label)
        elif fault.kind == "ap_reset":
            zhuge = (self.aps[fault.node].zhuge if fault.node
                     else self.zhuge)
            if zhuge is not None:
                zhuge.reset_state()
        elif fault.kind == "roam":
            ends = self._roam_ends(fault)
            if ends is not None:
                # Detach now, re-attach at _end.
                self.roam_flushed += self.mover.begin_roam(ends[0])

    def _end(self, fault: FaultSpec, index: int) -> None:
        self.log.append((self.sim.now, fault.kind, "end"))
        if self.trace is not None:
            self.trace.fault_phase(self._track, fault.kind, index, "end")
        edges = self._edges_for(fault.target, fault.edge)
        if fault.kind == "blackout":
            for _, er in edges:
                er.link.unblock()
        elif fault.kind == "rate_crash":
            for _, er in edges:
                er.channel.fault_scale = 1.0
        elif fault.kind == "loss_burst":
            for _, er in edges:
                er.link.fault_drop = None
        elif fault.kind == "roam":
            ends = self._roam_ends(fault)
            if ends is not None:
                # Re-association on the target AP: routes move, the
                # AP's estimators start fresh, the release floor carries.
                self.mover.complete_roam(*ends)

    def _loss_predicate(self, fault: FaultSpec, index: int, direction: str):
        rng = self.rng.fork(f"loss-{index}-{direction}")
        probability = fault.magnitude
        trace = self.trace
        track = self._track

        def drop(packet) -> bool:
            if rng.random() >= probability:
                return False
            self.loss_dropped += 1
            if trace is not None:
                trace.fault_loss(track, packet.pkt_id, direction)
            return True

        return drop
