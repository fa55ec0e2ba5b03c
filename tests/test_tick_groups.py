"""Tick groups against one event per tick (tests/reference_engine.py).

Timers that re-plant at one float instant share one heap entry; each
member keeps the seq its plant took, the group stops wherever another
entry sits between two members, and a post made by a member runs after
the whole group.  Random timer schedules are replayed against the
one-event-per-tick ``Timer``: the same call log, clock, ``peek()`` and
``pending()`` after every ``run(until=...)`` step, never more
dispatches.  The schedules mix dyadic intervals (whose accumulated
ticks tie exactly) with decimal ones (which tie by coincidence),
``first_delay=0``, ``on_grid``, interval changes, ``stop()`` from
inside callbacks, foreign ``call_at``s on tick instants, spawned timers
and callbacks that post, ``schedule(0.0)`` or schedule exactly one
interval ahead.  Two seeded mutant dispatchers must be caught: one
without the break check, one that drains posts after each member.
"""

import heapq
import random

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, Timer
from tests import reference_engine

INTERVALS = (1 / 64, 1 / 32, 3 / 64, 0.01, 0.02, 0.04, 1 / 30)
#: Spawned timers per schedule, so that a schedule stays small.
MAX_SPAWNS = 3

_interval = st.integers(0, len(INTERVALS) - 1)
_timer = st.integers(0, 7)      # modulo the timers made so far
_first_delay = st.sampled_from((None, 0.0, 1 / 64, 0.01))
ACTIONS = st.one_of(
    st.just(("none",)),
    st.just(("post",)),
    st.just(("zero",)),
    st.tuples(st.just("ahead"), _timer),
    st.tuples(st.just("stop"), _timer),
    st.tuples(st.just("interval"), _timer, _interval),
    st.tuples(st.just("spawn"), _interval, st.sampled_from((None, 0.0)),
              st.booleans()),
)
PROGRAMS = st.fixed_dictionaries({
    "timers": st.lists(st.tuples(_interval, _first_delay, st.booleans()),
                       min_size=1, max_size=5),
    # Foreign ``call_at(k * base)``, planted after the first timer.
    "foreign": st.lists(st.tuples(st.integers(0, 20),
                                  st.sampled_from((1 / 64, 0.01))),
                        max_size=4),
    # What each timer tick or foreign event does next, in turn.
    "actions": st.lists(ACTIONS, min_size=1, max_size=12),
    # ``run(until=k / 128)`` steps.
    "steps": st.lists(st.integers(1, 40), min_size=1, max_size=4),
})


def _trajectory(timer_cls, program, sim_cls=Simulator):
    """The state after every ``run(until=...)`` step, and the number of
    dispatches the whole schedule took."""
    sim = sim_cls()
    log, timers, states = [], [], []
    actions = program["actions"]
    turn = {"next": 0, "spawns": 0}

    def note(tag):
        return lambda: log.append((tag, sim.now))

    def make(interval, first_delay, on_grid):
        name = f"t{len(timers)}"
        timers.append(timer_cls(sim, INTERVALS[interval],
                                lambda: react(name),
                                first_delay=first_delay, on_grid=on_grid))

    def react(name):
        log.append((name, sim.now))
        index = turn["next"]
        turn["next"] = index + 1
        op = actions[index % len(actions)]
        kind, tag = op[0], f"{name}:{index}"
        if kind == "post":
            sim.post(note(tag))
        elif kind == "zero":
            sim.schedule(0.0, note(tag))
        elif kind == "ahead":
            sim.schedule(timers[op[1] % len(timers)].interval, note(tag))
        elif kind == "stop":
            timers[op[1] % len(timers)].stop()
        elif kind == "interval":
            timers[op[1] % len(timers)].interval = INTERVALS[op[2]]
        elif kind == "spawn" and turn["spawns"] < MAX_SPAWNS:
            turn["spawns"] += 1
            make(*op[1:])

    for index, spec in enumerate(program["timers"]):
        make(*spec)
        if index == 0:
            for k, base in program["foreign"]:
                sim.call_at(k * base, lambda k=k: react(f"at{k}"))
    for k in sorted(program["steps"]):
        sim.run(until=k / 128)
        states.append((list(log), sim.now, sim.peek(), sim.pending()))
    return states, sim.events_processed


def _matches(program, sim_cls=Simulator):
    new, new_events = _trajectory(Timer, program, sim_cls)
    ref, ref_events = _trajectory(reference_engine.Timer, program)
    return new == ref and new_events <= ref_events


def _mutant(defect: str) -> type:
    """A ``Simulator`` whose tick-group dispatch has one defect:
    ``"break"`` fires every member without the break check, ``"drain"``
    drains posts after each member instead of after the group."""

    def dispatch(self, group):
        time, heap, posted = group.time, self._heap, self._posted
        members = group.members
        fired = 0
        i = group.head
        while i < len(members):
            timer = members[i][2]
            if not timer._stopped:
                if defect != "break" and heap and heap[0] < members[i]:
                    break
                group.live -= 1
                timer._group = None
                self._now = time
                timer._fire()
                fired = 1
                while defect == "drain" and posted:
                    posted.popleft()()
            i += 1
        group.head = i
        if group.live:
            heapq.heappush(heap, (time, members[i][1], group))
        while posted:
            posted.popleft()()
        return fired

    return type(f"Mutant{defect.title()}", (Simulator,),
                {"_dispatch_group": dispatch})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS)
def test_groups_match_one_event_per_tick(program):
    assert _matches(program)


@pytest.mark.parametrize("defect", ("break", "drain"))
def test_oracle_catches_a_mutant_dispatch(defect):
    """Firing a group past an entry that sits between two members, or
    running a member's post ahead of the members after it, reorders the
    call log.  The oracle finds both."""
    mutant = _mutant(defect)
    # Any counterexample will do: generate only (no shrinking, no
    # explain phase).
    find(PROGRAMS, lambda program: not _matches(program, mutant),
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]),
         random=random.Random(37))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS)
def test_the_mutant_harness_passes_without_a_defect(program):
    """The mutants differ from the engine in their defect only."""
    assert _matches(program, _mutant("none"))
