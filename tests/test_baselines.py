"""Leaf-level baselines and the Euclidean-projection release variant."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inftda import (
    ConfigError,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    build_tree,
    stability_histogram,
    stability_threshold,
    tda_l2,
    validate_consistency,
    vanilla_gauss,
)
from inftda.baselines import (
    _euclidean_solver,
    _project_to_simplex,
    _round_preserving_sum,
    aggregate_up,
)
from l2_oracle import euclidean_solve as oracle_solve


@pytest.fixture(scope="module")
def budget():
    return PrivacyBudget.from_eps_delta(1.0, 1e-8)


class TestVanillaGauss:
    def test_covers_the_full_universe(self, trip_table, budget):
        leaf = vanilla_gauss(trip_table, budget, seed=0)
        assert len(leaf) == trip_table.universe_size
        # zero cells get noised too, and negatives survive
        assert any(k not in trip_table.counts for k in leaf)

    def test_deterministic(self, trip_table, budget):
        a = vanilla_gauss(trip_table, budget, seed=3)
        b = vanilla_gauss(trip_table, budget, seed=3)
        assert a == b
        assert a != vanilla_gauss(trip_table, budget, seed=4)

    def test_universe_cap(self, trip_table, budget):
        with pytest.raises(ConfigError, match="cap"):
            vanilla_gauss(trip_table, budget, seed=0, universe_cap=8)

    def test_high_budget_recovers_the_truth(self, trip_table):
        leaf = vanilla_gauss(trip_table, PrivacyBudget.from_rho(1e6), seed=0)
        positive = {k: v for k, v in leaf.items() if v != 0}
        assert positive == trip_table.counts


    def test_budget_that_snaps_rho_to_zero_is_a_config_error(self, trip_table):
        with pytest.raises(ConfigError, match="rho=1e-320"):
            vanilla_gauss(trip_table, PrivacyBudget.from_rho(1e-320), seed=0)


class TestStabilityHistogram:
    def test_no_false_positives_ever(self, trip_table, budget):
        for seed in range(20):
            leaf = stability_histogram(trip_table, budget, seed=seed)
            assert set(leaf) <= set(trip_table.counts)
            threshold = stability_threshold(budget.epsilon, budget.delta)
            assert all(v >= threshold for v in leaf.values())

    def test_small_counts_are_suppressed_at_eps1(self, trip_table, budget):
        # every true count is far below the ~39.2 threshold here
        leaf = stability_histogram(trip_table, budget, seed=0)
        assert leaf == {}

    def test_large_counts_survive(self, origin_hier, dest_hier, budget):
        from inftda import ingest_trips

        table = ingest_trips([("N.a", "E.x", 10000)], origin_hier, dest_hier)
        leaf = stability_histogram(table, budget, seed=0)
        assert set(leaf) == {("N.a", "E.x")}
        assert abs(leaf[("N.a", "E.x")] - 10000) < 100

    def test_budget_that_snaps_the_scale_to_zero_is_a_config_error(self, trip_table):
        # the Laplace scale 2/epsilon = 2e-12 is nearest to 0
        with pytest.raises(ConfigError, match="epsilon=1000000000000.0"):
            stability_histogram(trip_table, PrivacyBudget.from_eps_delta(1e12, 1e-8), seed=0)

    def test_requires_eps_delta_budget(self, trip_table):
        with pytest.raises(ConfigError, match="epsilon"):
            stability_histogram(trip_table, PrivacyBudget.from_rho(0.5), seed=0)

    def test_requires_bounded_unit_sensitivity(self, trip_table, budget):
        with pytest.raises(ConfigError, match="m=1"):
            stability_histogram(trip_table, budget, SensitivityModel("bounded", 2), 0)
        with pytest.raises(ConfigError, match="m=1"):
            stability_histogram(trip_table, budget, SensitivityModel("unbounded", 1), 0)


class TestSimplexProjection:
    def test_worked_example(self):
        projected = _project_to_simplex([0.0, -1.0, 1.0], 2)
        assert projected == pytest.approx([0.5, 0.0, 1.5])
        assert _round_preserving_sum(projected, 2) == [1, 0, 1]

    def test_zero_total(self):
        assert _project_to_simplex([3.0, -2.0], 0) == [0.0, 0.0]

    @given(
        x=st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6),
        total=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=200)
    def test_projection_is_the_nearest_feasible_point(self, x, total):
        y = _project_to_simplex(x, total)
        assert min(y) >= 0
        assert sum(y) == pytest.approx(total, abs=1e-6)
        # no feasible competitor may sit closer (convexity makes this a
        # sufficient certificate when sampled densely)
        rng = random.Random(7)
        dist = sum((a - b) ** 2 for a, b in zip(x, y))
        for _ in range(25):
            raw = [rng.random() for _ in x]
            z = [total * r / sum(raw) for r in raw] if sum(raw) else raw
            competitor = sum((a - b) ** 2 for a, b in zip(x, z))
            assert dist <= competitor + 1e-6

    @given(
        x=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=6),
        total=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200)
    def test_rounding_preserves_sum_and_stays_within_one(self, x, total):
        y = _project_to_simplex(x, total)
        rounded = _round_preserving_sum(y, total)
        assert sum(rounded) == total
        assert all(abs(r - v) < 1.0 + 1e-9 for r, v in zip(rounded, y))

    def test_rounding_ties_break_by_index(self):
        assert _round_preserving_sum([0.5, 0.5, 1.0], 3) == [1, 1, 1]
        assert _round_preserving_sum([0.5, 0.5, 0.0], 2) == [1, 1, 0]


def oracle_cases(count, seed):
    """Seeded (noisy children, parent total) pairs for every fan-out but two."""
    rng = random.Random(seed)
    for i in range(count):
        d = rng.choice((1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
        kind = i % 4
        if kind == 0:  # wide values
            x = [rng.randint(-2**50, 2**50) for _ in range(d)]
            total = rng.randint(0, 2**50)
        elif kind == 1:  # a small range: ties in the values and in the fractions
            x = [rng.randint(-3, 3) for _ in range(d)]
            total = rng.randint(0, 12)
        elif kind == 2:  # a small range near 2**50, where the running sum rounds
            offset = rng.choice((-1, 1)) * rng.randint(2**49, 2**50 - 3)
            x = [offset + rng.randint(-3, 3) for _ in range(d)]
            total = rng.randint(0, 20)
        else:
            x = [rng.randint(-10**6, 10**6) for _ in range(d)]
            total = rng.randint(0, 10**6)
        yield x, 0 if i % 23 == 0 else total


class TestEuclideanSolver:
    def test_matches_the_frozen_oracle(self):
        # the tie and rounding cases also catch a reversed index tie-break
        # and a support counted with >= instead of >
        mismatches = [
            (x, total) for x, total in oracle_cases(100_000, seed=11)
            if _euclidean_solver(x, total, "ascending", None) != oracle_solve(x, total)
        ]
        assert mismatches == []


class TestTwoChildSolver:
    def test_equals_projection_and_rounding_on_a_grid(self):
        for a in range(-15, 16):
            for b in range(-15, 16):
                for total in range(41):
                    assert _euclidean_solver((a, b), total, "ascending", None) == (
                        oracle_solve([a, b], total)
                    ), (a, b, total)

    def test_equals_projection_and_rounding_on_large_values(self):
        # up to 2**50 the float path is still exact, halves included
        rng = random.Random(5)
        for i in range(3000):
            a, b = rng.randint(-2**50, 2**50), rng.randint(-2**50, 2**50)
            total = 0 if i % 10 == 0 else rng.randint(0, 2**50)
            assert _euclidean_solver((a, b), total, "ascending", None) == (
                oracle_solve([a, b], total)
            ), (a, b, total)


class TestTdaL2:
    def test_consistent_and_deterministic(self, trip_table, budget):
        tree = build_tree(trip_table)
        rel = tda_l2(tree, ReleaseConfig(budget=budget, seed=0))
        assert rel.mechanism == "tda-l2"
        assert validate_consistency(rel.tree) == []
        assert rel.tree.n == trip_table.n
        again = tda_l2(build_tree(trip_table), ReleaseConfig(budget=budget, seed=0))
        assert rel.tree.levels == again.tree.levels

    def test_shares_the_noise_stream_with_the_main_mechanism(self, trip_table, budget):
        from inftda import release

        # identical seed, identical noise: only the per-parent solve differs,
        # so the released roots agree
        a = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=9))
        b = tda_l2(build_tree(trip_table), ReleaseConfig(budget=budget, seed=9))
        assert a.tree.n == b.tree.n == trip_table.n


class TestAggregateUp:
    def test_matches_build_tree_on_true_leaves(self, trip_table):
        maps = aggregate_up(trip_table.counts, trip_table.origin, trip_table.dest)
        assert maps == build_tree(trip_table).levels

    def test_negative_leaves_participate(self, origin_hier, dest_hier):
        maps = aggregate_up(
            {("N.a", "E.x"): 5, ("N.b", "E.x"): -3}, origin_hier, dest_hier
        )
        assert maps[0] == {("__all__", "__all__"): 2}
        assert maps[2][("N", "E")] == 2
