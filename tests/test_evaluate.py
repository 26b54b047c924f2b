"""Metrics, the mechanism dispatcher, and the benchmark harness."""

import json

import pytest
import score_oracle

from inftda import (
    MECHANISMS,
    ConfigError,
    EvalReport,
    HierTree,
    LevelStats,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    SynthSpec,
    build_tree,
    false_discovery_rate,
    gen_dataset,
    ingest_trips,
    max_abs_error_per_level,
    parse_hierarchy,
    run_experiment,
    run_mechanism,
    theoretical_error_envelope,
    write_report,
)
from inftda import evaluate
from inftda.dataio import write_json
from inftda.dpcore import derive_seed
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


class TestPrunedMaxErrorScan:
    """The scan looks a true key up in the release only when its |value| is
    above the worst released error; each case is held to the frozen per-key
    scorer of ``tests/score_oracle.py``."""

    @staticmethod
    def errors(truth, released):
        got = max_abs_error_per_level(truth, released)
        assert got == score_oracle.max_abs_error_per_level(truth, released)
        return got

    @staticmethod
    def truth_with_leaves(trip_table, leaves):
        levels = [dict(m) for m in build_tree(trip_table).levels]
        levels[-1] = leaves
        return HierTree("destination", trip_table.origin, trip_table.dest, levels)

    def test_missing_key_above_every_released_error(self, trip_table):
        tree = build_tree(trip_table)
        released = [dict(m) for m in tree.levels]
        released[4][("N.a", "E.x")] += 1  # worst released error: 1
        del released[4][("S.c", "E.y")]  # missed a true 5
        assert self.errors(tree, released)[4] == 5

    def test_truth_with_negatives_and_zeros(self, trip_table):
        leaves = {("N.a", "E.x"): 0, ("N.a", "E.y"): -7, ("N.b", "W.z"): 2, ("S.c", "E.y"): -1}
        truth = self.truth_with_leaves(trip_table, leaves)
        # missed: the -7 (error 7), the zero (0) and the -1 (1); released 4 for 2 (2)
        assert self.errors(truth, [{}] * 4 + [{("N.b", "W.z"): 4}])[4] == 7
        # with the -7 released exactly, the worst is the 4 released for 2
        released = {("N.a", "E.y"): -7, ("N.b", "W.z"): 4}
        assert self.errors(truth, [{}] * 4 + [released])[4] == 2
        # a zero released at a true zero's key errs by nothing
        released = {("N.a", "E.x"): 0, ("N.a", "E.y"): -7, ("N.b", "W.z"): 2, ("S.c", "E.y"): -1}
        assert self.errors(truth, [{}] * 4 + [released])[4] == 0

    @pytest.mark.parametrize("tied", [3, -3])
    def test_missing_key_tying_the_worst(self, trip_table, tied):
        leaves = {("N.a", "E.x"): 5, ("N.b", "W.z"): tied}
        truth = self.truth_with_leaves(trip_table, leaves)
        released = {("N.a", "E.x"): 2, ("S.c", "E.y"): -1}  # errors 3 and 1
        assert self.errors(truth, [{}] * 4 + [released])[4] == 3

    def test_empty_released_level_and_short_release(self, trip_table):
        tree = build_tree(trip_table)
        exact = [dict(m) for m in tree.levels]
        exact[2] = {}
        errors = self.errors(tree, exact)
        assert errors[2] == max(tree.levels[2].values()) and errors[4] == 0
        for length in range(5):
            errors = self.errors(tree, exact[:length])
            assert errors[length:] == [max(m.values()) for m in tree.levels[length:]]


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
        levels, rel = run_mechanism(
            mechanism, table, tree, budget, SensitivityModel(), "ascending", 0
        )
        assert len(levels) == tree.depth + 1
        # the release as the mechanism gave it: leaf-only output is not rolled up
        assert rel.mechanism == mechanism and rel.config.budget == budget
        assert bool(rel.tree.levels[0]) is not MECHANISMS[mechanism].leaf_only

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
            # the leaf depth alone, not rolled up
            assert [bool(level) for level in rel.tree.levels] == [False] * tree.depth + [True]
            assert [row["depth"] for row in rel.per_level] == [tree.depth]
        else:
            assert [row["depth"] for row in rel.per_level] == list(range(tree.depth + 1))
        # only the Chebyshev solver reads a visit order; tda-linf-random picks its own
        assert meta["order"] == {"inftda": "descending", "tda-linf-random": "random"}.get(mechanism)


class TestReports:
    def test_csv_is_byte_stable(self):
        stats = [
            LevelStats(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 1, 1.0, 1),
            LevelStats(1, 2, 3.5, 5, 0.0, 12.5, 25.0, 3, 3.5, 4),
        ]
        report = EvalReport(
            mechanism="inftda", rho=0.5, epsilon=1.0, delta=1e-8, order="ascending",
            mode="bounded", sensitivity={"type": "bounded", "m": 1, "distinct": True},
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
            mode="bounded", sensitivity={"type": "bounded", "m": 1, "distinct": True},
            seed=0, repeats=1, tree_mode="destination",
            levels=[LevelStats(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 1, 1.0, 1)],
            wall_ms=[1.5],
        )
        csv_path = tmp_path / "report.csv"
        write_report(report, str(csv_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == "od-release-report/1"
        assert payload["mechanism"] == "sh"
        assert payload["mode"] == "bounded"
        assert payload["sensitivity"] == {"type": "bounded", "m": 1, "distinct": True}
        assert payload["wall_ms"] == [1.5]
        assert "wall" not in csv_path.read_text()


class TestRunExperiment:

    def test_grid_shape_and_envelope(self, experiment_table):
        reports = run_experiment(
            experiment_table, mechanisms=["inftda", "sh"], epsilons=[0.5, 2.0],
            repeats=2, seed=1,
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

    @pytest.mark.parametrize(
        "make_table",
        [lambda: gen_dataset(SynthSpec(kind="binary", levels=2, sparsity=0.5), 4),
         lambda: gen_dataset(SynthSpec(kind="random", levels=2, k_min=3, k_max=3,
                                       sparsity=0.5), 4),
         lambda: gen_dataset(SynthSpec(kind="random", levels=2, sparsity=0.5), 4),
         lambda: ingest_trips([("N.a", "E.a", 3)], parse_hierarchy([("N", "N.a")]),
                              parse_hierarchy([("E", "E.a")]))],
        ids=["binary", "random-3", "random-arity", "one-child"],
    )
    def test_every_tree_carries_its_envelope(self, make_table):
        table = make_table()
        tree = build_tree(table)
        budget = PrivacyBudget.from_eps_delta(2.0, 1e-8)
        reports = run_experiment(table, epsilons=[2.0], repeats=1, beta=0.05)
        expected = [theoretical_error_envelope(d, tree, budget, SensitivityModel(), 0.05)
                    for d in range(tree.depth + 1)]
        for r in reports:
            assert r.envelope == (None if MECHANISMS[r.mechanism].leaf_only else expected)

    def test_reports_state_the_guarantee_and_order_each_mechanism_has(self, experiment_table):
        reports = run_experiment(experiment_table, repeats=1, order="descending")
        budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
        got = {r.mechanism: (r.rho, r.epsilon, r.order) for r in reports}
        assert got == {
            "inftda": (budget.rho, 1.0, "descending"),
            "tda-l2": (budget.rho, 1.0, None),  # the Euclidean solve reads no order
            "tda-linf-random": (budget.rho, 1.0, "random"),
            "vanilla-gauss": (budget.rho, 1.0, None),
            "sh": (None, 1.0, None),  # (epsilon, delta)-DP only
        }

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    @pytest.mark.parametrize("mechanism", list(MECHANISMS))
    def test_report_states_what_the_release_sidecar_states(self, experiment_table, tmp_path,
                                                          mechanism, mode):
        [report] = run_experiment(experiment_table, mechanisms=[mechanism], repeats=1, seed=4,
                                  order="descending", mode=mode)
        config = ReleaseConfig(budget=PrivacyBudget.from_eps_delta(1.0, 1e-8),
                               order="descending", seed=derive_seed(4, "repeat", 0))
        truth = None if MECHANISMS[mechanism].leaf_only else build_tree(experiment_table, mode)
        rel = run_release(mechanism, experiment_table, mode, truth, config)
        write_json(rel.metadata(), str(tmp_path / "rel.meta.json"))
        sidecar = json.loads((tmp_path / "rel.meta.json").read_text())
        stated = ("rho", "epsilon", "delta", "order", "mode", "sensitivity")
        assert [getattr(report, k) for k in stated] == [sidecar[k] for k in stated]
        assert sidecar["order"] == {"inftda": "descending", "tda-linf-random": "random"}.get(
            mechanism)
        # every tree release, and only those, has the envelope
        tree_mechanisms = ("inftda", "tda-l2", "tda-linf-random")
        assert (report.envelope is not None) == (mechanism in tree_mechanisms)

    @pytest.mark.parametrize("mechanism", ["inftda", "tda-l2", "vanilla-gauss"])
    def test_report_states_the_neighbour_relation(self, experiment_table, tmp_path, mechanism):
        sens = SensitivityModel("unbounded", 4, False)
        [report] = run_experiment(experiment_table, mechanisms=[mechanism], repeats=1, sens=sens)
        write_report(report, str(tmp_path / "report.csv"))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert (payload["mode"], payload["sensitivity"]) == (
            "unbounded", {"type": "unbounded", "m": 4, "distinct": False})
        [bounded] = run_experiment(experiment_table, mechanisms=[mechanism], repeats=1)
        assert (bounded.mode, bounded.sensitivity) == (
            "bounded", {"type": "bounded", "m": 1, "distinct": True})

    def test_default_grid_is_every_mechanism_at_epsilon_1(self, experiment_table):
        reports = run_experiment(experiment_table, repeats=1)
        assert [(r.mechanism, r.epsilon) for r in reports] == [(m, 1.0) for m in MECHANISMS]

    def test_deterministic_across_calls(self, experiment_table):
        kwargs = dict(mechanisms=["tda-l2"], epsilons=[1.0], repeats=3, seed=8)
        a = run_experiment(experiment_table, **kwargs)
        b = run_experiment(experiment_table, **kwargs)
        assert a[0].csv_text() == b[0].csv_text()

    def test_unknown_mechanism_fails_before_any_release(self, experiment_table, forks,
                                                        monkeypatch):
        def no_release(*args, **kwargs):
            raise AssertionError("a release ran")

        monkeypatch.setattr(evaluate, "release", no_release)
        with pytest.raises(ConfigError, match="unknown mechanism 'nope'"):
            run_experiment(experiment_table, mechanisms=["inftda", "tda-l2", "nope"], repeats=4)
        assert forks.count == 0

    def test_validation(self, experiment_table):
        with pytest.raises(ConfigError):
            run_experiment(experiment_table, mechanisms=["inftda"], epsilons=[1.0], repeats=0)
        with pytest.raises(ConfigError, match="beta"):
            run_experiment(experiment_table, mechanisms=["inftda"], beta=1.0)
