"""Fleet-level steering: continuously re-home RTC flows to healthy APs.

PR 5's roam handoff moved a client once, as a scripted fault response.
The :class:`SteeringDaemon` generalizes it into an ongoing optimization
loop (the wanctl "steer latency-sensitive traffic to the healthiest
WAN" half): every :data:`CHECK_INTERVAL` it scores each candidate AP from
its :class:`~repro.control.controller.ZhugeController` state (GREEN=3
.. RED=0, controller-less APs score neutral 1.5) and re-homes a
dual-homed client when the best candidate beats the serving AP by at
least :data:`SCORE_MARGIN`. Moves reuse the topology's real handoff —
``begin_roam`` (block + flush) followed :data:`HANDOFF` seconds later by
``complete_roam`` (re-associate, release-floor carry-over, 802.11r
frame forwarding) — so a steered move is indistinguishable from a
scripted roam fault at the datapath level.

Hysteresis is layered: the margin keeps symmetric healthy APs from
flapping, :data:`MIN_DWELL` spaces consecutive moves of one client, and the
controller's own dwell times debounce the scores themselves.
"""

from __future__ import annotations

from repro.sim.engine import Simulator, Timer

#: Seconds between steering passes.
CHECK_INTERVAL = 0.25
#: Minimum seconds between two moves of one client.
MIN_DWELL = 2.0
#: Score lead a candidate needs over the serving AP: a GREEN AP pulls
#: clients off SOFT_RED/RED ones but never off another GREEN/YELLOW,
#: so symmetric healthy APs never flap.
SCORE_MARGIN = 2.0
#: Begin-roam to re-association gap (the over-the-air handshake).
HANDOFF = 0.05

#: Score of an AP with no controller attached (between YELLOW and
#: SOFT_RED): unknown health neither attracts nor repels traffic.
NEUTRAL_SCORE = 1.5
#: Trace track of the steering events.
TRACK = "steering"


class SteeringDaemon:
    """Periodic re-homing loop over a built multi-AP topology.

    ``forwarding`` is the topology's
    :class:`~repro.topology.forwarding.Forwarding`: its ``aps``, RTC
    flows and attachment query pick the moves, its roam API makes them.
    """

    def __init__(self, sim: Simulator, forwarding, controllers: dict,
                 trace=None):
        self.sim = sim
        self.forwarding = forwarding
        self.controllers = controllers
        self.trace = trace
        #: (time, client, old_ap, new_ap) for every completed move.
        self.moves: list[tuple[float, str, str, str]] = []
        self._last_move: dict[str, float] = {}
        self._in_flight: set[str] = set()
        self._timer = Timer(sim, CHECK_INTERVAL, self._check)

    # -- scoring -------------------------------------------------------------

    def score(self, ap_name: str) -> float:
        controller = self.controllers.get(ap_name)
        if controller is None:
            return NEUTRAL_SCORE
        return 3.0 - controller.level

    def _serving_ap(self, client: str) -> str:
        for fr in self.forwarding.rtc:
            if client in (fr.spec.src, fr.spec.dst) and fr.serving_ap:
                return fr.serving_ap
        return ""

    def _clients(self) -> list[str]:
        """Dual-homed RTC clients, in flow declaration order."""
        seen = []
        for fr in self.forwarding.rtc:
            for node in (fr.spec.src, fr.spec.dst):
                if node in seen or node in self.forwarding.aps:
                    continue
                if len(self.forwarding.attached_aps(node)) >= 2:
                    seen.append(node)
        return seen

    # -- the steering loop ---------------------------------------------------

    def _check(self) -> None:
        now = self.sim.now
        for client in self._clients():
            if client in self._in_flight:
                continue
            if now - self._last_move.get(client, -1e18) < MIN_DWELL:
                continue
            serving = self._serving_ap(client)
            if not serving:
                continue
            candidates = self.forwarding.attached_aps(client)
            best = max(candidates, key=self.score)
            if best == serving:
                continue
            if self.score(best) - self.score(serving) < SCORE_MARGIN:
                continue
            self._begin(client, serving, best)

    def _begin(self, client: str, old_ap: str, new_ap: str) -> None:
        now = self.sim.now
        self._in_flight.add(client)
        self._last_move[client] = now
        self.forwarding.begin_roam(client)
        if self.trace is not None:
            self.trace.control_steer(TRACK, client, old_ap, new_ap,
                                     "begin")
        self.sim.schedule(HANDOFF,
                          lambda: self._complete(client, old_ap, new_ap))

    def _complete(self, client: str, old_ap: str, new_ap: str) -> None:
        self.forwarding.complete_roam(client, new_ap)
        self._in_flight.discard(client)
        self.moves.append((self.sim.now, client, old_ap, new_ap))
        if self.trace is not None:
            self.trace.control_steer(TRACK, client, old_ap, new_ap,
                                     "complete")
        # The abandoned AP keeps open predictions for frames that will
        # never be delivered — wipe them so its watchdog reads "idle"
        # rather than "stale forever" and the AP can be steered back to
        # once it is actually healthy again. Only safe when no RTC flow
        # is still served there.
        old_rt = self.forwarding.aps.get(old_ap)
        if (old_rt is not None and old_rt.zhuge is not None
                and not any(fr.serving_ap == old_ap
                            for fr in self.forwarding.rtc)):
            old_rt.zhuge.reset_state()

    def stop(self) -> None:
        self._timer.stop()


__all__ = ["SteeringDaemon", "NEUTRAL_SCORE"]
