"""Metrics, the mechanism dispatcher, and the benchmark harness."""

import json

import pytest

from inftda import (
    MECHANISMS,
    ConfigError,
    EvalReport,
    LevelStats,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    SynthSpec,
    build_tree,
    false_discovery_rate,
    gen_dataset,
    max_abs_error_per_level,
    run_experiment,
    run_mechanism,
    write_report,
)
from inftda.evaluate import run_release


class TestMetrics:
    def test_error_over_the_union_of_supports(self, trip_table):
        tree = build_tree(trip_table)
        released = [dict(m) for m in tree.levels]
        released[4].pop(("N.b", "W.z"))  # missed a true pair: error 2
        released[4][("N.b", "E.x")] = 9  # invented a pair: error 9
        errors = max_abs_error_per_level(tree, released)
        assert errors[4] == 9
        assert errors[0] == 0

    def test_error_zero_for_exact_release(self, trip_table):
        tree = build_tree(trip_table)
        assert max_abs_error_per_level(tree, tree.levels) == [0, 0, 0, 0, 0]

    def test_missing_trailing_levels_read_as_empty(self, trip_table):
        tree = build_tree(trip_table)
        errors = max_abs_error_per_level(tree, tree.levels[:1])
        assert errors[0] == 0
        assert errors[4] == max(trip_table.counts.values())

    def test_fdr_counts_only_positive_released(self, trip_table):
        tree = build_tree(trip_table)
        released = [dict(m) for m in tree.levels]
        released[4][("N.b", "E.x")] = 1  # false positive
        released[4][("N.b", "E.y")] = -2  # negative: not a discovery
        assert false_discovery_rate(tree, released, 4) == pytest.approx(100.0 / 5)

    def test_fdr_zero_when_nothing_released(self, trip_table):
        tree = build_tree(trip_table)
        assert false_discovery_rate(tree, [{} for _ in range(5)], 4) == 0.0


@pytest.fixture(scope="module")
def mech_setup():
    table = gen_dataset(SynthSpec(kind="random", levels=2, sparsity=0.3), 1)
    return table, build_tree(table), PrivacyBudget.from_eps_delta(1.0, 1e-8)


@pytest.fixture(scope="module")
def experiment_table():
    return gen_dataset(SynthSpec(kind="binary", levels=3, sparsity=0.5), 5)


class TestRunMechanism:

    @pytest.mark.parametrize(
        "mechanism", ["inftda", "tda-l2", "tda-linf-random", "vanilla-gauss", "sh"]
    )
    def test_returns_full_depth_maps(self, mech_setup, mechanism):
        table, tree, budget = mech_setup
        levels, wall_ms = run_mechanism(
            mechanism, table, tree, budget, SensitivityModel(), "ascending", 0
        )
        assert len(levels) == tree.depth + 1
        assert wall_ms >= 0

    def test_unknown_mechanism_rejected(self, mech_setup):
        table, tree, budget = mech_setup
        with pytest.raises(ConfigError, match="unknown mechanism"):
            run_mechanism("dp-magic", table, tree, budget, SensitivityModel(), "ascending", 0)

    @pytest.mark.parametrize("mechanism", list(MECHANISMS))
    def test_every_mechanism_returns_one_release_type(self, mech_setup, mechanism):
        table, tree, budget = mech_setup
        leaf_only = MECHANISMS[mechanism].leaf_only
        truth = None if leaf_only else build_tree(table, "origin")
        config = ReleaseConfig(budget=budget, order="descending", seed=3)
        rel = run_release(mechanism, table, "origin", truth, config)
        meta = rel.metadata()
        assert meta["mechanism"] == mechanism and meta["tree"] == "origin"
        if leaf_only:
            # the leaf depth alone, not rolled up, and no visit order
            assert [bool(level) for level in rel.tree.levels] == [False] * tree.depth + [True]
            assert [row["depth"] for row in rel.per_level] == [tree.depth]
            assert meta["order"] is None
        else:
            assert [row["depth"] for row in rel.per_level] == list(range(tree.depth + 1))
            assert meta["order"] == (MECHANISMS[mechanism].order or "descending")


class TestReports:
    def test_csv_is_byte_stable(self):
        stats = [
            LevelStats(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 1, 1.0, 1),
            LevelStats(1, 2, 3.5, 5, 0.0, 12.5, 25.0, 3, 3.5, 4),
        ]
        report = EvalReport(
            mechanism="inftda", rho=0.5, epsilon=1.0, delta=1e-8, order="ascending",
            seed=0, repeats=2, tree_mode="destination", levels=stats,
        )
        assert report.csv_text() == (
            "level,err_min,err_mean,err_max,fdr_min,fdr_mean,fdr_max,"
            "nodes_min,nodes_mean,nodes_max\n"
            "0,0,0.000000,0,0.000000,0.000000,0.000000,1,1.000000,1\n"
            "1,2,3.500000,5,0.000000,12.500000,25.000000,3,3.500000,4\n"
        )

    def test_write_report_emits_csv_and_json(self, tmp_path):
        report = EvalReport(
            mechanism="sh", rho=0.1, epsilon=1.0, delta=1e-8, order="ascending",
            seed=0, repeats=1, tree_mode="destination",
            levels=[LevelStats(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 1, 1.0, 1)],
            wall_ms=[1.5],
        )
        csv_path = tmp_path / "report.csv"
        write_report(report, str(csv_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == "od-release-report/1"
        assert payload["mechanism"] == "sh"
        assert payload["wall_ms"] == [1.5]
        assert "wall" not in csv_path.read_text()


class TestRunExperiment:

    def test_grid_shape_and_envelope(self, experiment_table):
        reports = run_experiment(
            experiment_table, mechanisms=["inftda", "sh"], epsilons=[0.5, 2.0],
            repeats=2, seed=1, branching=2,
        )
        assert [(r.mechanism, r.epsilon) for r in reports] == [
            ("inftda", 0.5), ("sh", 0.5), ("inftda", 2.0), ("sh", 2.0),
        ]
        for r in reports:
            assert len(r.levels) == 7
            assert len(r.wall_ms) == 2
            if r.mechanism == "inftda":
                assert r.envelope is not None and r.envelope[0] == 0.0
            else:
                assert r.envelope is None

    def test_default_grid_is_every_mechanism_at_epsilon_1(self, experiment_table):
        reports = run_experiment(experiment_table, repeats=1)
        assert [(r.mechanism, r.epsilon) for r in reports] == [(m, 1.0) for m in MECHANISMS]

    def test_deterministic_across_calls(self, experiment_table):
        kwargs = dict(mechanisms=["tda-l2"], epsilons=[1.0], repeats=3, seed=8)
        a = run_experiment(experiment_table, **kwargs)
        b = run_experiment(experiment_table, **kwargs)
        assert a[0].csv_text() == b[0].csv_text()

    def test_validation(self, experiment_table):
        with pytest.raises(ConfigError):
            run_experiment(experiment_table, mechanisms=["inftda"], epsilons=[1.0], repeats=0)
        with pytest.raises(ConfigError, match="branching"):
            run_experiment(experiment_table, mechanisms=["inftda"], epsilons=[1.0], branching=1)
