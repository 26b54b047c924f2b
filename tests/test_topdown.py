"""The top-down release engine and its error envelope."""

import math

import pytest

from inftda import (
    ConfigError,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    build_tree,
    release,
    theoretical_error_envelope,
    validate_consistency,
)

# from the same oracle run as the dpcore frozen constants (T=16, b=2,
# eps=1, delta=1e-8, beta=0.01)
ENVELOPE_L1 = 254.4506309406654
ENVELOPE_L8 = 2905.2367513263093
ENVELOPE_L16 = 7016.392801384163


@pytest.fixture(scope="module")
def budget():
    return PrivacyBudget.from_eps_delta(1.0, 1e-8)


class TestRelease:
    def test_deterministic_for_a_seed(self, trip_table, budget):
        config = ReleaseConfig(budget=budget, seed=4)
        a = release(build_tree(trip_table), config)
        b = release(build_tree(trip_table), config)
        assert a.tree.levels == b.tree.levels
        other = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=5))
        assert a.tree.levels != other.tree.levels

    def test_consistent_root_preserving_and_positive(self, trip_table, budget):
        rel = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=0))
        assert validate_consistency(rel.tree) == []
        assert rel.tree.n == trip_table.n  # bounded mode keeps the exact total
        for depth in range(1, rel.tree.depth + 1):
            assert all(v > 0 for v in rel.tree.level_map(depth).values())

    def test_no_orphans(self, trip_table, budget):
        rel = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=1))
        for depth in range(1, rel.tree.depth + 1):
            for key in rel.tree.level_map(depth):
                parent = rel.tree.parent_key(key, depth)
                assert rel.tree.level_map(depth - 1).get(parent, 0) > 0

    def test_high_budget_recovers_the_truth(self, trip_table):
        tree = build_tree(trip_table)
        rel = release(tree, ReleaseConfig(budget=PrivacyBudget.from_rho(1e6), seed=2))
        assert rel.tree.levels == tree.levels

    def test_unbounded_root_is_noisy_but_non_negative(self, trip_table):
        sens = SensitivityModel("unbounded")
        config = ReleaseConfig(budget=PrivacyBudget.from_rho(0.05), sensitivity=sens, seed=3)
        rel = release(build_tree(trip_table), config)
        assert rel.tree.n >= 0
        assert validate_consistency(rel.tree) == []
        # across seeds the root must actually move
        roots = {
            release(
                build_tree(trip_table),
                ReleaseConfig(budget=PrivacyBudget.from_rho(0.05), sensitivity=sens, seed=s),
            ).tree.n
            for s in range(8)
        }
        assert len(roots) > 1

    def test_empty_table_releases_zero_root(self, origin_hier, dest_hier, budget):
        from inftda import ingest_trips

        table = ingest_trips([], origin_hier, dest_hier)
        rel = release(build_tree(table), ReleaseConfig(budget=budget, seed=0))
        assert rel.tree.n == 0
        assert all(rel.tree.level_map(d) == {} for d in range(1, rel.tree.depth + 1))

    def test_per_level_bookkeeping(self, trip_table, budget):
        rel = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=0))
        assert [row["depth"] for row in rel.per_level] == list(range(5))
        for row in rel.per_level:
            assert row["node_count"] == len(rel.tree.levels[row["depth"]])
            assert row["wall_ms"] >= 0

    def test_metadata_schema(self, trip_table, budget):
        rel = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=6))
        meta = rel.metadata()
        assert set(meta) == {
            "mechanism", "mode", "rho", "epsilon", "delta", "sensitivity",
            "order", "seed", "depth", "tree", "per_level",
        }
        assert meta["mechanism"] == "inftda"
        assert meta["epsilon"] == 1.0 and meta["delta"] == 1e-8
        assert meta["sensitivity"] == {"type": "bounded", "m": 1, "distinct": True}
        assert meta["depth"] == 4 and meta["tree"] == "destination"

    @pytest.mark.parametrize(
        "rho, privacy, m, what",
        [
            (1e12, "bounded", 1, "per-level sigma2"),  # snaps to 0
            (1e-320, "bounded", 1, "per-level sigma2"),  # infinite
            (1e-320, "unbounded", 1, "per-level sigma2"),
            (1e10, "unbounded", 4, "root sigma2"),  # per-level 8e-10 snaps to 1e-9, root 4e-10 to 0
        ],
    )
    def test_unusable_snapped_variance_is_a_config_error(self, trip_table, rho, privacy, m, what):
        config = ReleaseConfig(budget=PrivacyBudget.from_rho(rho),
                               sensitivity=SensitivityModel(privacy, m=m), seed=0)
        with pytest.raises(ConfigError, match=f"the budget rho={rho!r} gives the {what}"):
            release(build_tree(trip_table), config)

    def test_invalid_order_rejected(self, budget):
        with pytest.raises(ConfigError, match="order"):
            ReleaseConfig(budget=budget, order="sideways")


class TestEnvelope:
    def test_frozen_values(self, budget):
        sens = SensitivityModel()
        assert theoretical_error_envelope(1, 2, 16, budget, sens) == pytest.approx(
            ENVELOPE_L1, rel=1e-12
        )
        assert theoretical_error_envelope(8, 2, 16, budget, sens) == pytest.approx(
            ENVELOPE_L8, rel=1e-12
        )
        assert theoretical_error_envelope(16, 2, 16, budget, sens) == pytest.approx(
            ENVELOPE_L16, rel=1e-12
        )

    def test_formula(self, budget):
        sens = SensitivityModel()
        sigma2 = 2 * 16 / (2 * budget.rho)
        want = 2 * 3 * math.sqrt(2 * sigma2 * (math.log(2 * 2 * 3 / 0.01) + 3 * math.log(2)))
        got = theoretical_error_envelope(3, 2, 16, budget, sens, beta=0.01)
        assert got == pytest.approx(want, rel=1e-12)

    def test_level_zero_and_monotonicity(self, budget):
        sens = SensitivityModel()
        values = [theoretical_error_envelope(l, 2, 16, budget, sens) for l in range(17)]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self, budget):
        sens = SensitivityModel()
        with pytest.raises(ValueError):
            theoretical_error_envelope(-1, 2, 16, budget, sens)
        with pytest.raises(ValueError):
            theoretical_error_envelope(17, 2, 16, budget, sens)
