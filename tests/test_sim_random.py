"""Tests for the deterministic random source."""

from repro.sim.random import DeterministicRandom


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRandom(7)
        b = DeterministicRandom(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRandom(7)
        b = DeterministicRandom(8)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


class TestFork:
    def test_fork_is_deterministic(self):
        a = DeterministicRandom(7).fork("wifi")
        b = DeterministicRandom(7).fork("wifi")
        assert a.random() == b.random()

    def test_fork_independent_of_parent_draws(self):
        parent1 = DeterministicRandom(7)
        child_before = parent1.fork("x").random()
        parent2 = DeterministicRandom(7)
        for _ in range(100):
            parent2.random()
        child_after = parent2.fork("x").random()
        assert child_before == child_after

    def test_forks_with_different_names_differ(self):
        parent = DeterministicRandom(7)
        assert parent.fork("a").random() != parent.fork("b").random()


class TestDistributions:
    def test_uniform_bounds(self):
        rng = DeterministicRandom(1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_expovariate_positive(self):
        rng = DeterministicRandom(1)
        assert all(rng.expovariate(1.0) > 0 for _ in range(100))

    def test_pareto_at_least_one(self):
        rng = DeterministicRandom(1)
        assert all(rng.pareto(1.0) >= 1.0 for _ in range(100))

    def test_randint_bounds(self):
        rng = DeterministicRandom(1)
        values = {rng.randint(0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_randindex_covers_all_indices(self):
        rng = DeterministicRandom(1)
        seen = {rng.randindex(3) for _ in range(200)}
        assert seen == {0, 1, 2}

    def test_lognormal_positive(self):
        rng = DeterministicRandom(1)
        assert all(rng.lognormal(0.0, 1.0) > 0 for _ in range(100))
