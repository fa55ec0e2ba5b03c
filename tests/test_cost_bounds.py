"""Cost bounds of the per-packet path, as exact bytecode counts.

The paper's claim (§7.6, Fig. 21) is that per-packet estimation is
cheap enough to run on every packet.  Each bound here counts the
bytecodes CPython executes (:func:`opcodes`): a pure function of the
code and its input, so a count repeats exactly on any host and every
bound is an exact assertion, not a timing.  Counts are CPython 3.11's,
the interpreter the golden digests assume; the comment beside each
bound gives the count it read when it was set.

* An estimator query, and ABC's per-packet mark, costs the same at
  window fill 16 and 256.  The naive re-scan references of
  ``tests/reference_sliding_window.py`` cost >= 3x more at 256, so the
  count sees a re-scan.  Work done in C (``math.fsum`` over a window)
  is one call at any fill, so each query also stays within today's
  count.
* A packet through Fig. 21's one hand-driven datapath
  (``overhead.datapath`` / ``spin``) costs at most 5 % more at 100
  flows than at 1.
* Disabled tracing costs < 2 % over the same classes with their probe
  sites cut out (:func:`probes_stripped`, derived from the live source),
  and no more opcodes per packet than today's probes; a bus that
  filters every event out trips the 2 % ceiling.
* The adaptive controller adds nothing per packet over the watchdog it
  reuses, and a healthy controlled run never leaves GREEN.
"""

import ast
import functools
import gc
import inspect
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction

import pytest

from repro.campaign import ScenarioSpec, TraceSpec
from repro.cca.abc import RATE_WINDOW, AbcRouter
from repro.control import ControlSpec, ZhugeController
from repro.control.controller import GREEN
from repro.core.feedback_updater import OutOfBandFeedbackUpdater
from repro.core.sliding_window import (
    BurstSizeTracker,
    DelayDeltaHistory,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.experiments.drivers.overhead import datapath, spin
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.obs.bus import TraceBus
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.builder import TopologyBuilder
from tests.reference_sliding_window import (
    ReferenceBurstSizeTracker,
    ReferenceDelayDeltaHistory,
    ReferenceDequeueIntervalEstimator,
    ReferenceSlidingWindowRate,
)


def opcodes(fn, *args) -> int:
    """Bytecodes executed by ``fn(*args)``, in every frame it enters.

    The cyclic collector is paused: a collection would run finalizers
    of garbage that earlier code left, and count their bytecodes too.
    """
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


# -- estimator queries ------------------------------------------------------

#: Queries per count; ``DelayDeltaHistory.sample``'s draw loop makes the
#: per-query figure depend on it.
QUERIES = 100
#: Departure spacing: 256 entries are a busy AP's ~6000 pps.
SPACING = 0.002
#: Opcodes per query of the optimized estimators, at either fill.
QUERY_CEILING = {
    "DelayDeltaHistory.sample": Fraction("97.28"),
    "DequeueIntervalEstimator.average_interval": Fraction("41.29"),
    "BurstSizeTracker.max_burst_bytes": Fraction("69.08"),
    "SlidingWindowRate.rate_bps": Fraction("57.08"),
}


def _query_cost(name: str, fill: int, reference: bool = False) -> Fraction:
    """Opcodes per query of estimator ``name`` holding ``fill`` events,
    all in a window twice their span."""
    span = fill * SPACING
    window = 2 * span
    if name == "DelayDeltaHistory.sample":
        cls = ReferenceDelayDeltaHistory if reference else DelayDeltaHistory
        estimator = cls(window=window, rng=DeterministicRandom(7))
        for i in range(fill):
            estimator.push(i * SPACING, 0.001 + (i % 16) * 0.0001)
        query = estimator.sample
    elif name == "DequeueIntervalEstimator.average_interval":
        cls = (ReferenceDequeueIntervalEstimator if reference
               else DequeueIntervalEstimator)
        estimator = cls(window=window)
        for i in range(fill + 1):
            estimator.record_departure(i * SPACING)
        query = estimator.average_interval
    elif name == "BurstSizeTracker.max_burst_bytes":
        cls = ReferenceBurstSizeTracker if reference else BurstSizeTracker
        estimator = cls(window=window)
        for i in range(fill):
            estimator.record_departure(i * SPACING, 1200 + (i % 7) * 100)
        query = estimator.max_burst_bytes
    else:
        cls = ReferenceSlidingWindowRate if reference else SlidingWindowRate
        estimator = cls(window=window)
        for i in range(fill):
            estimator.record(i * SPACING, 1200)
        query = estimator.rate_bps

    def run():
        for _ in range(QUERIES):
            query(span)

    return Fraction(opcodes(run), QUERIES)


@pytest.mark.parametrize("name", list(QUERY_CEILING))
def test_query_cost_does_not_grow_with_the_window(name):
    # Set at 97.28 / 41.29 / 69.08 / 57.08 at both fills.
    small, large = _query_cost(name, 16), _query_cost(name, 256)
    assert large == small <= QUERY_CEILING[name], (name, small, large)


@pytest.mark.parametrize("name", list(QUERY_CEILING))
def test_reference_query_cost_grows_with_the_window(name):
    """Blindness check: the count sees an O(window) query."""
    # Set at 207.28 -> 1887.28, 187.08 -> 2107.08, 199.08 -> 2355.08,
    # 205.08 -> 2125.08.
    small = _query_cost(name, 16, reference=True)
    large = _query_cost(name, 256, reference=True)
    assert large >= 3 * small, (name, small, large)


def _abc_mark_cost(fill: int) -> Fraction:
    """Opcodes per :meth:`AbcRouter.mark` with ``fill`` arrivals in its
    rate window, at steady state: each mark expires exactly one."""
    queue = DropTailQueue(capacity_bytes=1_000_000)
    # A terabit link takes the accelerate branch on every mark.
    router = AbcRouter(Simulator(), queue, capacity_fn=lambda now: 1e12)
    assert queue.on_departure == []
    # ``fill - 0.5`` spacings per window: every horizon falls half a
    # spacing away from the nearest arrival.
    spacing = RATE_WINDOW / (fill - 0.5)
    packet = Packet(FiveTuple("server", "client", 5000, 6000), 1200)
    for i in range(fill):
        router.mark(packet, i * spacing)

    def run():
        for i in range(fill, fill + QUERIES):
            router.mark(packet, i * spacing)

    return Fraction(opcodes(run), QUERIES)


def test_abc_mark_cost_does_not_grow_with_the_window():
    """ABC's router keeps a running byte total of its arrival window
    and observes no departures."""
    # Set at 153.11 at both fills; the per-mark re-sum read 296.11 ->
    # 2216.11.
    small, large = _abc_mark_cost(16), _abc_mark_cost(256)
    assert large == small, (small, large)


# -- Fig. 21's datapath -----------------------------------------------------

#: Untraced packets before every count: first calls fill lazy state.
WARMUP = 200
PACKETS = 1000


def _drive(packets: int, flows: int = 1, attach=None):
    """``(opcodes per packet, fingerprint)`` of ``packets`` spun through
    :func:`~repro.experiments.drivers.overhead.spin` after ``WARMUP``.

    ``attach(sim, queue, ap, flow_list)`` dresses the datapath first.
    The fingerprint shows two variants followed one state trajectory.
    """
    sim, queue, ap, flow_list = datapath(flows)
    if attach is not None:
        attach(sim, queue, ap, flow_list)
    spin(sim, queue, ap, flow_list, 0, WARMUP)
    count = opcodes(spin, sim, queue, ap, flow_list, WARMUP,
                    WARMUP + packets)
    updater = ap.updaters[flow_list[0]]
    fingerprint = (queue.stats.enqueued, queue.stats.dequeued,
                   round(updater.release_floor, 9),
                   round(updater.outstanding_tokens, 9))
    return Fraction(count, packets), fingerprint


def test_per_packet_cost_is_flat_in_concurrent_flows():
    """Fig. 21's near-linear claim: CPU grows with packets, not flows."""
    one, hundred = _drive(PACKETS)[0], _drive(PACKETS, flows=100)[0]
    # Set at 1448.5 / 1446.541 = x1.0014.
    assert hundred <= Fraction("1.05") * one, (one, hundred)


# -- disabled tracing -------------------------------------------------------

#: Instrumented-but-disabled may cost at most this multiple of the
#: probe-free datapath.
OVERHEAD_CEILING = Fraction("1.02")
#: Opcodes per packet the disabled probe sites cost today: a new probe
#: on the per-packet path must be costed here.
PROBE_BUDGET = Fraction("23.913")
#: The classes whose probe sites sit on the driven datapath.
PROBED_CLASSES = (DropTailQueue, OutOfBandFeedbackUpdater)


class _StripProbes(ast.NodeTransformer):
    """Cuts the tracing probe sites out of one function's AST."""

    def __init__(self):
        self.aliases: set[str] = set()  # locals bound to ``self.trace``
        self.sites = 0

    def _is_trace(self, node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "trace"
                or isinstance(node, ast.Name) and node.id in self.aliases)

    def visit_Assign(self, node):
        if self._is_trace(node.value):
            self.aliases.update(target.id for target in node.targets)
            return None
        return node

    def visit_If(self, node):
        test = node.test
        if (isinstance(test, ast.Compare) and self._is_trace(test.left)
                and isinstance(test.ops[0], ast.IsNot)
                and getattr(test.comparators[0], "value", 0) is None):
            self.sites += 1
            return None
        return self.generic_visit(node)


@functools.cache
def probe_free(function):
    """``(twin, sites)``: ``function`` re-compiled without its probes."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    stripper = _StripProbes()
    ast.fix_missing_locations(stripper.visit(tree))
    namespace: dict = {}
    exec(compile(tree, inspect.getsourcefile(function), "exec"),
         function.__globals__, namespace)
    return namespace[function.__name__], stripper.sites


@contextmanager
def probes_stripped():
    """Run the live classes without probe sites; yields sites cut."""
    saved, sites = [], 0
    for cls in PROBED_CLASSES:
        for name, function in list(vars(cls).items()):
            if inspect.isfunction(function):
                twin, cut = probe_free(function)
                if cut:
                    saved.append((cls, name, function))
                    setattr(cls, name, twin)
                    sites += cut
    try:
        yield sites
    finally:
        for cls, name, function in saved:
            setattr(cls, name, function)


@functools.cache
def _probe_free_drive():
    with probes_stripped():
        return _drive(PACKETS)


def test_disabled_tracing_costs_under_two_percent():
    live, trajectory = _drive(PACKETS)
    probe_free_cost, probe_free_trajectory = _probe_free_drive()
    assert probe_free_trajectory == trajectory
    # Set at 1446.541 / 1422.628 = x1.0168, 7 sites cut.
    assert live / probe_free_cost < OVERHEAD_CEILING
    assert live - probe_free_cost <= PROBE_BUDGET


def test_an_enabled_probe_trips_the_ceiling():
    """Blindness check: a bus that filters every category out still
    costs a call per probe site."""
    def traced(sim, queue, ap, flow_list):
        bus = TraceBus(None, categories=())
        queue.trace = ap.updaters[flow_list[0]].trace = bus

    injected = _drive(PACKETS, attach=traced)[0]
    # Set at 1604.195 / 1422.628 = x1.128.
    assert injected / _probe_free_drive()[0] > OVERHEAD_CEILING


# -- the adaptive controller ------------------------------------------------

def test_controller_adds_nothing_per_packet_over_its_watchdog():
    def watchdog(sim, queue, ap, flow_list):
        ap.enable_watchdog()

    def controller(sim, queue, ap, flow_list):
        ZhugeController(sim, ap)

    # Set at 1497.243 on both sides.
    assert (_drive(PACKETS, flows=4, attach=controller)
            == _drive(PACKETS, flows=4, attach=watchdog))


def test_healthy_controlled_run_stays_green():
    builder = TopologyBuilder(ScenarioSpec(
        trace=TraceSpec.constant(20e6, 6.0), ap_mode="zhuge",
        duration=6.0, control=ControlSpec()))
    summary = builder.run()
    assert [c.state for c in builder.controllers.values()] == [GREEN]
    assert summary.control_transitions == []
    assert summary.watchdog_transitions == []
