"""Deterministic random source for reproducible simulations.

All stochastic components draw from a :class:`DeterministicRandom` seeded
by the scenario, so a run is a pure function of its configuration.
Sub-streams (:meth:`fork`) give independent, stable sequences per
component: adding draws in one component does not perturb another.
"""

from __future__ import annotations

import random
import zlib


class DeterministicRandom:
    """Seeded RNG wrapper with named sub-streams."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = random.Random(seed)
        # ``randrange(n)`` is exactly one ``_randbelow(n)`` draw; binding
        # the underlying method skips the argument-normalization wrapper
        # on the per-ACK sampling path without changing the sequence.
        self._randbelow = self._rng._randbelow

    def fork(self, name: str) -> "DeterministicRandom":
        """Derive an independent stream identified by ``name``.

        The child seed depends only on (parent seed, name), never on how
        many values the parent has drawn. Built on crc32, NOT ``hash()``:
        Python salts string hashes per process, which would silently
        break run-to-run reproducibility.
        """
        digest = zlib.crc32(f"{self._seed}:{name}".encode("utf-8"))
        return DeterministicRandom(digest & 0x7FFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._rng.lognormvariate(mu, sigma)

    def pareto(self, alpha: float) -> float:
        return self._rng.paretovariate(alpha)

    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def randindex(self, n: int) -> int:
        """A uniform index in ``[0, n)`` — ``randrange(n)``, one draw."""
        return self._randbelow(n)
