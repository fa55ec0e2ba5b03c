"""Structural guard: estimator arithmetic lives in one file, at a known price.

PR 21 deleted the fused copies of the estimator bodies that lived in
``FortuneTeller`` and ``OutOfBandFeedbackUpdater``.  Two things keep
them from growing back:

* no module of ``repro.core`` other than ``sliding_window*.py`` may name
  an estimator's private state;
* the Python frames one data packet, one ACK and one AMPDU cost — the
  price paid for the deletion — are budgeted with ``sys.setprofile``,
  which counts calls and so reads the same on any host.
"""

import ast
import random
import sys
from pathlib import Path

import repro.core
from repro.core.feedback_updater import FeedbackKind
from repro.core.zhuge_ap import ZhugeAP
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.random import DeterministicRandom

CORE = Path(repro.core.__file__).parent

#: Private attributes of the classes in ``core/sliding_window.py``.
ESTIMATOR_STATE = {
    "_events", "_bytes_in_window", "_first_event",          # rate
    "_intervals", "_mean", "_last_departure",               # intervals
    "_bursts", "_max", "_current_start", "_current_bytes",  # bursts
    "_times", "_values", "_head",                           # delta history
    "_entries",                                             # token bank
}
#: ``TimedRun._times`` in the updater's macro release branch is the
#: engine's, not an estimator's; it leaves with ROADMAP item 2.
NOT_ESTIMATORS = {("feedback_updater.py", "run", "_times")}


def reach_ins() -> list[str]:
    found = []
    for path in sorted(CORE.glob("*.py")):
        if path.name.startswith("sliding_window"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ESTIMATOR_STATE):
                owner = getattr(node.value, "id", None)
                if (path.name, owner, node.attr) not in NOT_ESTIMATORS:
                    found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_no_private_estimator_state_outside_sliding_window():
    assert reach_ins() == []


#: Mean Python frames beneath one call (the call's own frame excluded).
FRAME_BUDGET = {"on_downlink": 10, "on_uplink": 8, "dequeue_burst": 6}


def frames_per_call(rounds: int = 300) -> dict[str, float]:
    """The 4-flow datapath loop: 8 data packets, one AMPDU, 8 ACKs."""
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=10_000_000)
    ap = ZhugeAP(sim, queue, rng=DeterministicRandom(1))
    flows = [FiveTuple("server", "client", 1000 + i, 2000 + i)
             for i in range(4)]
    for flow in flows:
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
    reverse = [flow.reversed() for flow in flows]
    frames = dict.fromkeys(FRAME_BUDGET, 0)
    calls = dict.fromkeys(FRAME_BUDGET, 0)
    current = None

    def profile(frame, event, arg):
        if event == "call":
            frames[current] += 1

    def counted(key, fn, *args):
        nonlocal current
        current = key
        sys.setprofile(profile)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        calls[key] += 1
        return result

    jitter = random.Random(7)
    now = 0.0
    for _ in range(rounds):
        sim._now = now
        for i in range(8):
            packet = Packet(flows[i % 4], 1200)
            queue.enqueue(packet, now)
            counted("on_downlink", ap.on_downlink, packet)
        sim._now = now + 0.002
        burst = counted("dequeue_burst", queue.dequeue_burst, sim._now,
                        8, 1 << 20)
        assert len(burst) == 8
        sim._now = now + 0.003
        for i in range(8):
            counted("on_uplink", ap.on_uplink,
                    Packet(reverse[i % 4], ACK_SIZE, PacketKind.ACK))
        now += 0.004 + jitter.uniform(0.0, 0.004)
    assert ap.hotpath_stats()[-1].acks_delayed == rounds * 8
    return {key: frames[key] / calls[key] - 1 for key in FRAME_BUDGET}


def test_frame_budget_per_datapath_call():
    measured = frames_per_call()
    for key, budget in FRAME_BUDGET.items():
        assert measured[key] <= budget, (key, measured)
