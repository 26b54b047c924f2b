"""Leaf-level baselines and the Euclidean-projection release variant."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inftda import (
    ConfigError,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    aggregate_up,
    build_tree,
    stability_histogram,
    stability_threshold,
    tda_l2,
    validate_consistency,
    vanilla_gauss,
)
from inftda.baselines import _project_to_simplex, _round_preserving_sum


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

    def test_budget_that_snaps_epsilon_to_zero_is_a_config_error(self, trip_table):
        with pytest.raises(ConfigError, match="epsilon=1e-10"):
            stability_histogram(trip_table, PrivacyBudget.from_eps_delta(1e-10, 1e-8), seed=0)

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
        projected = _project_to_simplex(np.array([0.0, -1.0, 1.0]), 2)
        assert np.allclose(projected, [0.5, 0.0, 1.5])
        assert _round_preserving_sum(projected, 2) == [1, 0, 1]

    def test_zero_total(self):
        assert list(_project_to_simplex(np.array([3.0, -2.0]), 0)) == [0.0, 0.0]

    @given(
        x=st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6),
        total=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=200)
    def test_projection_is_the_nearest_feasible_point(self, x, total):
        arr = np.asarray(x)
        y = _project_to_simplex(arr, total)
        assert y.min() >= 0
        assert y.sum() == pytest.approx(total, abs=1e-6)
        # no feasible competitor may sit closer (convexity makes this a
        # sufficient certificate when sampled densely)
        rng = random.Random(7)
        dist = float(((arr - y) ** 2).sum())
        for _ in range(25):
            raw = np.array([rng.random() for _ in x])
            z = total * raw / raw.sum() if raw.sum() else raw
            competitor = float(((arr - z) ** 2).sum())
            assert dist <= competitor + 1e-6

    @given(
        x=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=6),
        total=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200)
    def test_rounding_preserves_sum_and_stays_within_one(self, x, total):
        y = _project_to_simplex(np.asarray(x), total)
        rounded = _round_preserving_sum(y, total)
        assert sum(rounded) == total
        assert all(abs(r - v) < 1.0 + 1e-9 for r, v in zip(rounded, y))

    def test_rounding_ties_break_by_index(self):
        assert _round_preserving_sum(np.array([0.5, 0.5, 1.0]), 3) == [1, 1, 1]
        assert _round_preserving_sum(np.array([0.5, 0.5, 0.0]), 2) == [1, 1, 0]


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
