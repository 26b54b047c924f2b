"""The top-down release engine and its error envelope."""

import math
from fractions import Fraction

import pytest
from rollup_oracle import parent_key

from inftda import (
    ConfigError,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    SynthSpec,
    build_tree,
    gen_dataset,
    release,
    theoretical_error_envelope,
    validate_consistency,
)
from inftda import topdown

# the formula in floats, at the sigma2 of the dpcore frozen constant, on the
# complete binary tree (T=16, 2**k keys at depth k; eps=1, delta=1e-8,
# beta=0.01)
ENVELOPE_L1 = 240.8973018456181
ENVELOPE_L8 = 2673.7540301592944
ENVELOPE_L16 = 6508.07113002606


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
            assert all(v > 0 for v in rel.tree.levels[depth].values())

    def test_no_orphans(self, trip_table, budget):
        rel = release(build_tree(trip_table), ReleaseConfig(budget=budget, seed=1))
        for depth in range(1, rel.tree.depth + 1):
            for key in rel.tree.levels[depth]:
                parent = parent_key(rel.tree, key, depth)
                assert rel.tree.levels[depth - 1].get(parent, 0) > 0

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
        assert all(rel.tree.levels[d] == {} for d in range(1, rel.tree.depth + 1))

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
            # the levels and the root share m^2 (T + 1) / (2 rho), infinite at m = 4
            (1e-307, "unbounded", 4, "per-level sigma2"),
        ],
    )
    def test_unusable_snapped_variance_is_a_config_error(self, trip_table, rho, privacy, m, what):
        config = ReleaseConfig(budget=PrivacyBudget.from_rho(rho),
                               sensitivity=SensitivityModel(privacy, m=m), seed=0)
        with pytest.raises(ConfigError, match=f"the budget rho={rho!r} gives the {what}"):
            release(build_tree(trip_table), config)

    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("privacy", ["bounded", "unbounded"])
    def test_release_spends_exactly_its_budget(self, origin_hier, dest_hier, monkeypatch,
                                               budget, privacy, m, distinct):
        # the variances the release samples with, charged the tree level's
        # GS2^2 / (2 sigma2) per level and m^2 / (2 sigma2) for the unbounded
        # root; the counts are large enough that a noisy root is never 0, so
        # every level is drawn
        from inftda import ingest_trips

        trips = [("N.a", "E.x", 3000), ("N.b", "W.z", 2000), ("S.c", "E.y", 5000)]
        drawn = {"root": [], "levels": set()}
        sample = topdown.sample_discrete_gaussian

        def recording(sigma2, rng, size=None):
            if size is None:
                drawn["root"].append(sigma2)
            else:
                drawn["levels"].add(sigma2)
            return sample(sigma2, rng, size)

        monkeypatch.setattr(topdown, "sample_discrete_gaussian", recording)
        sens = SensitivityModel(privacy, m, distinct)
        tree = build_tree(ingest_trips(trips, origin_hier, dest_hier))
        release(tree, ReleaseConfig(budget=budget, sensitivity=sens, seed=0))
        (sigma2,) = drawn["levels"]
        assert len(drawn["root"]) == (privacy == "unbounded")
        spent = tree.depth * Fraction(sens.level_gs2_squared) / (2 * sigma2)
        spent += sum(Fraction(m * m) / (2 * root) for root in drawn["root"])
        rho = Fraction(budget.rho)
        assert rho * (1 - Fraction(1, 10**9)) <= spent <= rho

    def test_invalid_order_rejected(self, budget):
        with pytest.raises(ConfigError, match="order"):
            ReleaseConfig(budget=budget, order="sideways")


@pytest.fixture(scope="module")
def binary_tree():
    return build_tree(gen_dataset(SynthSpec(kind="binary"), seed=0))


@pytest.mark.parametrize("seed", [0, 1])
def test_binary_fixture_release_derives_127_streams(binary_tree, forks, monkeypatch, seed):
    # one stream per parent at depths 0-5, then one per block: the 64 nodes at
    # depth 6 form the frontier
    forks.cpus(1)
    tokens = []
    derive = topdown.substream

    def counting(*args):
        tokens.append(args[1:3])
        return derive(*args)

    monkeypatch.setattr(topdown, "substream", counting)
    release(binary_tree, ReleaseConfig(budget=PrivacyBudget.from_eps_delta(1.0, 1e-8), seed=seed))
    assert len(tokens) == 127
    assert tokens.count(("block", 6)) == 64


class TestEnvelope:
    def test_frozen_values(self, binary_tree, budget):
        sens = SensitivityModel()
        assert theoretical_error_envelope(1, binary_tree, budget, sens) == pytest.approx(
            ENVELOPE_L1, rel=1e-12
        )
        assert theoretical_error_envelope(8, binary_tree, budget, sens) == pytest.approx(
            ENVELOPE_L8, rel=1e-12
        )
        assert theoretical_error_envelope(16, binary_tree, budget, sens) == pytest.approx(
            ENVELOPE_L16, rel=1e-12
        )

    def test_formula(self, binary_tree, trip_table, budget):
        # (2 level + u) sqrt(2 sigma2 ln(2N / beta)), N counting the keys of
        # each depth's universe down to the level, plus u for the noisy root
        def want(level, coords, shares, gs2_squared, u):
            sigma2 = gs2_squared * shares / (2 * budget.rho)
            return (2 * level + u) * math.sqrt(2 * sigma2 * math.log(2 * coords / 0.01))

        bounded, unbounded = SensitivityModel(), SensitivityModel("unbounded")
        got = theoretical_error_envelope(3, binary_tree, budget, bounded, beta=0.01)
        assert got == pytest.approx(want(3, 2 + 4 + 8, 16, 2, 0), rel=1e-12)
        got = theoretical_error_envelope(3, binary_tree, budget, unbounded, beta=0.01)
        assert got == pytest.approx(want(3, 1 + 2 + 4 + 8, 17, 1, 1), rel=1e-12)
        # irregular: 2 areas, then 3, on each side
        got = theoretical_error_envelope(4, build_tree(trip_table), budget, bounded, beta=0.01)
        assert got == pytest.approx(want(4, 2 + 4 + 6 + 9, 4, 2, 0), rel=1e-12)

    def test_level_zero_and_monotonicity(self, binary_tree, budget):
        sens = SensitivityModel()
        values = [theoretical_error_envelope(l, binary_tree, budget, sens) for l in range(17)]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self, binary_tree, budget):
        sens = SensitivityModel()
        with pytest.raises(ValueError):
            theoretical_error_envelope(-1, binary_tree, budget, sens)
        with pytest.raises(ValueError):
            theoretical_error_envelope(17, binary_tree, budget, sens)
