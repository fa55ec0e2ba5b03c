"""Disabled-tracing overhead guard: the ``repro.obs`` <2% contract.

Every probe site in the datapath costs one attribute load plus an
``is not None`` branch while tracing is disabled. This driver measures
that cost *paired*: the live AP datapath with ``trace = None`` against
the same classes with their probe sites cut out, interleaved in one
process and compared on a low quantile of the per-round ratios. A
cross-run comparison against absolute ops/sec in ``BENCH_hotpath.json``
would be hopelessly flaky (this container jitters +-15% between runs).

The probe-free side is *derived from the live source*, not kept by
hand: :func:`probe_free` re-compiles a method without its
``tr = self.trace`` loads and ``if <trace> is not None:`` blocks, and
:func:`probes_stripped` installs those twins on the live classes for
the probe-free rounds. Both sides therefore resolve the same
identity-gated fast paths and differ by the probe sites only (a
hand-kept copy went stale when the live side was optimised, and the
guard read 0.80 from then on).

``benchmarks/bench_obs_overhead.py`` asserts
``overhead_ratio < OVERHEAD_CEILING``, that an injected probe trips
that ceiling, and appends the numbers to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import ast
import functools
import gc
import inspect
import textwrap
import time
from contextlib import contextmanager

from repro.core.feedback_updater import (FeedbackKind,
                                         OutOfBandFeedbackUpdater)
from repro.core.zhuge_ap import ZhugeAP
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom

#: The acceptance ceiling: instrumented-but-disabled may cost at most
#: this multiple of the probe-free datapath.
OVERHEAD_CEILING = 1.02
#: Untimed packets at the start of every round.
WARMUP = 200
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


def _drive(packets, probe=None):
    """Run the per-packet datapath; returns (elapsed_s, fingerprint).

    The fingerprint proves both variants followed the same state
    trajectory. The collector is paused during the timed region (a GC
    cycle landing in one variant only would dominate the <2% signal)
    and the first ``WARMUP`` packets run untimed: swapping methods on a
    class resets the interpreter's inline caches for it.
    """
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=10_000_000)
    ap = ZhugeAP(sim, queue, rng=DeterministicRandom(1))
    flow = FiveTuple("server", "client", 1000, 2000)
    ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
    updater = ap.out_of_band_updater(flow)
    queue.trace = updater.trace = probe
    uplink = flow.reversed()

    def spin(first, last):
        for i in range(first, last):
            t = i * 0.005
            sim._now = t  # drive the virtual clock directly (bench only)
            packet = Packet(flow, 1200, seq=i)
            queue.enqueue(packet, t)
            ap.on_downlink(packet)
            queue.dequeue_burst(t + 0.002, 8, 1 << 20)
            sim._now = t + 0.004
            ap.on_uplink(Packet(uplink, ACK_SIZE, PacketKind.ACK, ack=i))

    spin(0, WARMUP)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        spin(WARMUP, WARMUP + packets)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    fingerprint = (queue.stats.enqueued, queue.stats.dequeued,
                   round(updater.release_floor, 9),
                   round(updater.outstanding_tokens, 9))
    return elapsed, fingerprint


def run_overhead_bench(packets: int = 1500, repeats: int = 192,
                       probe=None) -> dict:
    """Paired interleaved comparison; see the module docstring.

    ``probe`` goes on the instrumented side only: ``None`` is the
    contract being guarded, and a bus that filters every category out —
    the cheapest *enabled* probe there is — must trip the ceiling.
    """
    variants = ("instrumented", "probe_free")
    times: dict[str, list[float]] = {name: [] for name in variants}
    fingerprints = {}
    for round_index in range(repeats):
        # Alternate the order each round so slow drift (thermal, cache
        # pressure) cancels instead of biasing one variant.
        for name in variants if round_index % 2 == 0 else variants[::-1]:
            if name == "instrumented":
                elapsed, fingerprint = _drive(packets, probe)
            else:
                with probes_stripped() as sites:
                    elapsed, fingerprint = _drive(packets)
            if round_index > 0:  # round 0 is JIT/cache warmup
                times[name].append(elapsed)
            fingerprints[name] = fingerprint
    if len(set(fingerprints.values())) != 1:
        raise AssertionError(
            f"probe-free twins diverged from the instrumented "
            f"datapath: {fingerprints}")
    # Each ratio pairs two rounds ~15 ms apart, so slow machine-speed
    # drift divides out; CPU-steal spikes hit either side of a pair
    # alike and leave the median where it was. The guard reads the 40th
    # percentile — a one-sided sign test: with ~190 pairs it stays under
    # the ceiling unless clearly more than half of them (2.7 sigma) read
    # above it, so host noise cannot fire it, while a real probe
    # regression shifts every pair and still does.
    ratios = sorted(i / p for i, p in zip(times["instrumented"],
                                          times["probe_free"]))
    return {
        "packets": packets,
        "repeats": repeats,
        "probe_sites_cut": sites,
        "instrumented_disabled_best_s": min(times["instrumented"]),
        "probe_free_best_s": min(times["probe_free"]),
        "overhead_ratio": ratios[len(ratios) * 2 // 5],
        "median_ratio": ratios[len(ratios) // 2],
        "ceiling": OVERHEAD_CEILING,
    }
