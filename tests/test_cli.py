"""End-to-end command line pipeline and exit-code contract."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import inftda
from inftda import baselines, cli, evaluate
from inftda.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def dataset(tmp_path):
    """A small synthetic dataset packed into a container, via the CLI."""
    out = tmp_path / "ds"
    assert run("synth", "--kind", "random", "--levels", "2", "--sparsity", "dense",
               "--seed", "3", "--out", str(out)) == 0
    data = tmp_path / "data.bin"
    assert run(
        "ingest",
        "--hierarchy-o", str(out / "origin_hierarchy.csv"),
        "--hierarchy-d", str(out / "destination_hierarchy.csv"),
        "--trips", str(out / "trips.csv"),
        "--out", str(data),
    ) == 0
    return data


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """README.md's command line quick start: its dataset and inftda release."""
    tmp = tmp_path_factory.mktemp("quickstart")
    data, release = tmp / "od.bin", tmp / "release.csv"
    assert run("synth", "--kind", "random", "--sparsity", "sparse", "--seed", "3",
               "--out", str(tmp / "data")) == 0
    assert run("ingest", "--hierarchy-o", str(tmp / "data" / "origin_hierarchy.csv"),
               "--hierarchy-d", str(tmp / "data" / "destination_hierarchy.csv"),
               "--trips", str(tmp / "data" / "trips.csv"), "--out", str(data)) == 0
    assert run("release", "--data", str(data), "--mechanism", "inftda", "--epsilon", "1",
               "--delta", "1e-8", "--seed", "7", "--out", str(release)) == 0
    return data, release


class TestPipeline:
    def test_synth_writes_manifest(self, tmp_path):
        out = tmp_path / "ds"
        assert run("synth", "--kind", "binary", "--levels", "3", "--sparsity", "0.5",
                   "--seed", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "od-synth-manifest/1"
        assert manifest["universe"] == 64
        assert manifest["support"] == 32

    def test_release_and_evaluate(self, dataset, tmp_path):
        rel = tmp_path / "rel.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--epsilon", "1", "--delta", "1e-8", "--seed", "7",
                   "--out", str(rel)) == 0
        meta = json.loads((tmp_path / "rel.meta.json").read_text())
        assert meta["mechanism"] == "inftda"
        assert meta["epsilon"] == 1.0
        report = tmp_path / "report.csv"
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(report)) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "level,max_abs_error,false_discovery_rate,released_nodes"
        assert len(lines) == 6  # header + levels 0..4
        assert lines[1].startswith("0,0,")  # bounded release preserves the root
        assert (tmp_path / "report.json").exists()

    def test_release_is_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                       "--rho", "0.1", "--seed", "5", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sh_states_epsilon_and_delta_but_no_rho(self, dataset, tmp_path, capsys):
        # a Laplace-plus-threshold histogram is (epsilon, delta)-DP only
        rel = tmp_path / "sh.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "sh",
                   "--rho", "0.5", "--delta", "1e-6", "--out", str(rel)) == 0
        meta = json.loads((tmp_path / "sh.meta.json").read_text())
        assert (meta["rho"], meta["delta"]) == (None, 1e-6)
        assert meta["epsilon"] == pytest.approx(5.756522)
        out = capsys.readouterr().out
        assert "(epsilon=5.75652, delta=1e-06)" in out and "rho=" not in out

    def test_leaf_release_without_meta_uses_the_depth_heuristic(self, dataset, tmp_path):
        rel = tmp_path / "sh.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "sh",
                   "--epsilon", "1", "--delta", "1e-8", "--out", str(rel)) == 0
        (tmp_path / "sh.meta.json").unlink()
        report = tmp_path / "sh_report.csv"
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(report)) == 0
        for line in report.read_text().splitlines()[1:]:
            assert line.split(",")[2] == "0.000000"  # sh never invents pairs

    def test_origin_tree_mode_round_trips_through_meta(self, dataset, tmp_path):
        rel = tmp_path / "og.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "tda-l2",
                   "--rho", "0.2", "--tree", "origin", "--out", str(rel)) == 0
        report = tmp_path / "og_report.csv"
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(report)) == 0
        payload = json.loads((tmp_path / "og_report.json").read_text())
        assert payload["tree"] == "origin"
        assert payload["mechanism"] == "tda-l2"

    def test_tda_l2_states_no_order_it_never_reads(self, dataset, tmp_path):
        files = {}
        for flag in ("asc", "desc"):
            rel = tmp_path / f"{flag}.csv"
            assert run("release", "--data", str(dataset), "--mechanism", "tda-l2", "--seed", "2",
                       "--epsilon", "1", "--delta", "1e-8", "--order", flag, "--out", str(rel)) == 0
            meta = json.loads((tmp_path / f"{flag}.meta.json").read_text())
            for row in meta["per_level"]:
                del row["wall_ms"]
            files[flag] = (rel.read_bytes(), meta)
        assert files["asc"] == files["desc"]
        assert files["asc"][1]["order"] is None

    def test_sweep(self, dataset, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "data": str(dataset),
            "mechanisms": ["inftda", "sh"],
            "epsilons": [1.0],
            "repeats": 2,
            "seed": 4,
            "out_dir": str(tmp_path / "reports"),
        }))
        assert run("sweep", "--config", str(config)) == 0
        base = tmp_path / "reports"
        for name in ("report_inftda_eps1", "report_sh_eps1"):
            assert (base / f"{name}.csv").exists()
            assert (base / f"{name}.json").exists()
        inftda = json.loads((base / "report_inftda_eps1.json").read_text())
        sh = json.loads((base / "report_sh_eps1.json").read_text())
        # the random-arity tree has its envelope too: one value per depth, 0 at the root
        assert len(inftda["envelope"]) == 5 and inftda["envelope"][0] == 0.0
        assert inftda["order"] == "ascending"
        assert inftda["rho"] > 0
        assert (sh["rho"], sh["epsilon"], sh["order"], sh["envelope"]) == (None, 1.0, None, None)

    def test_sweep_with_synth_block(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "synth": {"kind": "binary", "levels": 3, "sparsity": "dense", "seed": 2},
            "mechanisms": ["inftda"],
            "epsilons": [2.0],
            "repeats": 2,
            "out_dir": str(tmp_path / "reports"),
        }))
        assert run("sweep", "--config", str(config)) == 0
        payload = json.loads((tmp_path / "reports" / "report_inftda_eps2.json").read_text())
        assert payload["envelope"][0] == 0.0


    def test_sweep_keys_at_their_defaults_change_nothing(self, tmp_path, monkeypatch):
        # each key at the default README.md documents, against a config naming none
        synth = {"kind": "binary", "levels": 2, "sparsity": 0.5, "seed": 1}
        explicit = {
            "synth": {**synth, "k_min": 2, "k_max": 10, "exponent": 2.0},
            "mechanisms": list(evaluate.MECHANISMS), "epsilons": [1.0], "delta": 1e-8,
            "repeats": 10, "seed": 0, "order": "asc", "tree": "destination",
            "privacy": "bounded", "m": 1, "distinct": True, "beta": 0.01,
            "out_dir": ".",
        }
        reports = {}
        for name, cfg in (("bare", {"synth": synth}), ("explicit", explicit)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            (tmp_path / name / "sweep.json").write_text(json.dumps(cfg))
            assert run("sweep", "--config", "sweep.json") == 0
            reports[name] = {}
            for path in sorted((tmp_path / name).glob("report_*")):
                data = path.read_text()
                if path.suffix == ".json":
                    payload = json.loads(data)
                    payload.pop("wall_ms")
                    data = payload
                reports[name][path.name] = data
        assert len(reports["bare"]) == 2 * len(evaluate.MECHANISMS)
        assert reports["bare"] == reports["explicit"]


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run("release", "--mechanism", "inftda") == 2  # --data missing
        assert run("release", "--data", "x", "--mechanism", "bogus", "--out", "y") == 2
        assert run("release", "--data", "x", "--mechanism", "vanilla-gauss", "--rho", "1",
                   "--universe-cap", "5", "--out", "y") == 2
        assert run() == 2

    def test_data_error_is_3(self, tmp_path):
        assert run("ingest", "--hierarchy-o", "missing.csv", "--hierarchy-d", "m.csv",
                   "--trips", "t.csv", "--out", str(tmp_path / "x.bin")) == 3

    def test_config_error_is_4(self, dataset, tmp_path, monkeypatch):
        out = str(tmp_path / "x.csv")
        # no budget at all
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--out", out) == 4
        # both budget styles at once
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--epsilon", "1", "--delta", "1e-8", "--out", out) == 4
        # epsilon without delta
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--epsilon", "1", "--out", out) == 4
        # sh needs an (epsilon, delta) budget
        assert run("release", "--data", str(dataset), "--mechanism", "sh",
                   "--rho", "1", "--out", out) == 4
        # vanilla-gauss universe cap
        monkeypatch.setattr(baselines, "UNIVERSE_CAP", 2)
        assert run("release", "--data", str(dataset), "--mechanism", "vanilla-gauss",
                   "--rho", "1", "--out", out) == 4

    def test_sweep_above_the_universe_cap_is_4_and_writes_no_report(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(baselines, "UNIVERSE_CAP", 2)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"data": str(dataset), "mechanisms": ["vanilla-gauss"],
                                      "repeats": 2, "out_dir": str(tmp_path / "reports")}))
        assert run("sweep", "--config", str(config)) == 4
        assert "above the cap 2" in capsys.readouterr().err
        assert list((tmp_path / "reports").glob("report_*")) == []

    def test_synth_exponent_below_the_bound_is_4(self, tmp_path, capsys):
        # below 53/1024 the largest Pareto draw overflows a float
        assert run("synth", "--levels", "2", "--exponent", "0.001",
                   "--out", str(tmp_path / "ds")) == 4
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"synth": {"levels": 2, "exponent": 0.001},
                                      "repeats": 1, "out_dir": str(tmp_path)}))
        assert run("sweep", "--config", str(config)) == 4
        assert capsys.readouterr().err.count("53/1024") == 2

    @pytest.mark.parametrize(
        "budget",
        [
            ["--rho", "0"],
            ["--rho", "nan"],
            ["--rho", "inf"],
            ["--epsilon", "1", "--delta", "5"],
            ["--rho", "1", "--m", "0"],
        ],
        ids=["rho-0", "rho-nan", "rho-inf", "delta-5", "m-0"],
    )
    def test_bad_budget_is_4(self, dataset, tmp_path, budget):
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   *budget, "--out", str(tmp_path / "x.csv")) == 4

    @pytest.mark.parametrize(
        "mechanism, budget",
        [
            ("inftda", ["--rho", "1e12"]),
            ("tda-l2", ["--rho", "1e12"]),
            ("inftda", ["--rho", "1e-320"]),
            ("vanilla-gauss", ["--rho", "1e-320"]),
            ("sh", ["--epsilon", "1e12", "--delta", "1e-8"]),
        ],
        ids=["inftda-rho-1e12", "tda-l2-rho-1e12", "inftda-rho-1e-320",
             "vanilla-gauss-rho-1e-320", "sh-eps-1e12"],
    )
    def test_extreme_budget_is_4(self, dataset, tmp_path, capsys, mechanism, budget):
        # each snaps a sampler parameter to 0 or to no finite rational at all
        assert run("release", "--data", str(dataset), "--mechanism", mechanism,
                   *budget, "--out", str(tmp_path / "x.csv")) == 4
        assert "the budget rho=" in capsys.readouterr().err

    def test_tree_release_without_its_root_row_is_3(self, quickstart, tmp_path, capsys):
        # only a leaf-only release may omit the root; any other depth left
        # behind would be ignored by the roll-up from the leaves
        data, release = quickstart
        header, *rows = release.read_text().splitlines()
        kept = [r.rsplit(",", 1)[0] + ",999999" if r.startswith("2,") else r
                for r in rows if not r.startswith("0,")]
        rel = tmp_path / "release.csv"
        rel.write_text("\n".join([header, *kept]) + "\n")
        (tmp_path / "release.meta.json").write_text(
            release.with_name("release.meta.json").read_text())
        capsys.readouterr()
        assert run("evaluate", "--truth", str(data), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3
        assert "no root row but holds depths [1, 2, 3, 4, 5, 6, 7]" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["whole", "no-leaves", "leaf-plus-one"])
    def test_inconsistent_tree_release_is_3(self, quickstart, tmp_path, capsys, edit):
        # a tree release missing its depth-8 rows, or with one leaf raised by
        # 1, would otherwise score as if whole
        data, release = quickstart
        header, *rows = release.read_text().splitlines()
        if edit == "no-leaves":
            rows = [r for r in rows if not r.startswith("8,")]
        elif edit == "leaf-plus-one":
            depth, o, d, flow = rows[-1].split(",")
            rows[-1] = f"{depth},{o},{d},{int(flow) + 1}"
        rel = tmp_path / "release.csv"
        rel.write_text("\n".join([header, *rows]) + "\n")
        (tmp_path / "release.meta.json").write_text(
            release.with_name("release.meta.json").read_text())
        capsys.readouterr()
        code = run("evaluate", "--truth", str(data), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv"))
        err = capsys.readouterr().err
        if edit == "whole":
            assert code == 0 and err == ""
            return
        assert code == 3
        assert "is not a consistent tree release" in err
        if edit == "leaf-plus-one":
            parent = f"'{o.rsplit('.', 1)[0]}', '{d}', 7"
            assert ": 1 violation(s)" in err and f"(origin, destination, depth) ({parent})" in err

    @pytest.mark.parametrize(
        "bad",
        [{"epsilons": [0.0]}, {"epsilons": ["inf"]}, {"delta": 2.0}, {"m": 0},
         {"epsilons": []}, {"mechanisms": []}],
        ids=["eps-0", "eps-inf", "delta-2", "m-0", "no-epsilons", "no-mechanisms"],
    )
    def test_bad_sweep_budget_is_4(self, dataset, tmp_path, bad):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"data": str(dataset), "mechanisms": ["inftda"],
                                      "repeats": 1, "out_dir": str(tmp_path), **bad}))
        assert run("sweep", "--config", str(config)) == 4

    @pytest.mark.parametrize("tree", ["destination", "origin"])
    @pytest.mark.parametrize("side", ["origin", "destination"])
    def test_unknown_leaf_in_leaf_release_is_3(self, dataset, tmp_path, tree, side):
        rel = tmp_path / "sh.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "sh", "--tree", tree,
                   "--epsilon", "1", "--delta", "1e-8", "--out", str(rel)) == 0
        header, first, *rest = rel.read_text().splitlines()
        depth, o, d, flow = first.split(",")
        if side == "origin":
            o = "nowhere"
        else:
            d = "nowhere"
        rel.write_text("\n".join([header, f"{depth},{o},{d},{flow}", *rest]) + "\n")
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3

    @pytest.mark.parametrize("side", ["origin", "destination"])
    def test_unknown_area_in_tree_release_is_3(self, quickstart, tmp_path, capsys, side):
        data, release = quickstart
        *rows, last = release.read_text().splitlines()
        depth, o, d, flow = last.split(",")
        if side == "origin":
            o = "nowhere"
        else:
            d = "nowhere"
        rel = tmp_path / "release.csv"
        rel.write_text("\n".join([*rows, f"{depth},{o},{d},{flow}"]) + "\n")
        (tmp_path / "release.meta.json").write_text(
            release.with_name("release.meta.json").read_text())
        capsys.readouterr()
        assert run("evaluate", "--truth", str(data), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3
        assert f"depth {depth} names unknown {side} area 'nowhere'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"epsilons": ["one"]},
            {"epsilons": 1.0},
            {"m": "x"},
            {"repeats": "x"},
            {"synth": {"levels": "two"}},
            {"synth": "binary"},
            {"synth": {"levels": 2.5}},
            {"synth": {"levels": True}},
            {"synth": {"k_min": 2.0}},
            {"synth": {"k_max": 3.0}},
            {"synth": {"seed": 1.5}},
            {"synth": {"kind": "binary", "level": 2}},
            {"synth": {"levels": 2, "exponent": True}},
            {"synth": {"levels": 2, "sparsity": True}},
        ],
        ids=["eps-word", "eps-scalar", "m-word", "repeats-word", "synth-levels-word",
             "synth-string", "synth-levels-float", "synth-levels-bool", "synth-k-min-float",
             "synth-k-max-float", "synth-seed-float", "synth-unknown-level",
             "synth-exponent-bool", "synth-sparsity-bool"],
    )
    def test_malformed_sweep_value_is_4(self, dataset, tmp_path, bad):
        cfg = {"mechanisms": ["inftda"], "repeats": 1, "out_dir": str(tmp_path), **bad}
        if "synth" not in cfg:
            cfg["data"] = str(dataset)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(config)) == 4

    @pytest.mark.parametrize("text", ["5", '["data"]'], ids=["number", "list"])
    def test_sweep_config_not_an_object_is_4(self, tmp_path, text):
        config = tmp_path / "sweep.json"
        config.write_text(text)
        assert run("sweep", "--config", str(config)) == 4

    def test_bad_sweep_config_is_3(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run("sweep", "--config", str(config)) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"order": ["asc"]},
            {"out_dir": 5},
            {"branching": "x"},
            {"branching": 1},
            {"beta": 2},
            {"tree": "sideways"},
            {"mechanisms": "inftda"},
            {"distinct": "false"},
            {"distinct": 0},
            {"m": 2.5},
            {"m": True},
            {"repeats": 2.0},
            {"repeats": True},
            {"seed": 0.5},
            {"workers": True},
            {"universe_cap": 1e7},
            {"branching": 2.0},
            {"universe_cap": True},
            {"synth": {"kind": "binary", "levels": 2}},
            {"epsilon": [0.1]},
            {"workers": 2},
            {"epsilons": [True]},
            {"delta": "1e-8"},
            {"epsilons": [1, 1.0000001]},
            {"mechanisms": ["inftda", "inftda"]},
        ],
        ids=["order-list", "out-dir-number", "branching-word", "branching-1", "beta-2",
             "tree-sideways", "mechanisms-string", "distinct-string", "distinct-number",
             "m-float", "m-bool", "repeats-float", "repeats-bool", "seed-float",
             "workers-bool", "universe-cap-float", "branching-float", "universe-cap-bool",
             "data-and-synth", "unknown-epsilon", "unknown-workers", "eps-bool",
             "delta-string", "epsilons-same-report", "mechanisms-repeated"],
    )
    def test_malformed_sweep_config_is_4_before_any_release(
        self, dataset, tmp_path, monkeypatch, capsys, bad
    ):
        released = []
        monkeypatch.setattr(evaluate, "run_mechanism", lambda *args: released.append(args))
        cfg = {"data": str(dataset), "mechanisms": ["inftda"], "repeats": 2,
               "out_dir": str(tmp_path), **bad}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(config)) == 4
        assert released == []
        assert next(iter(bad)) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "sweep"])
    def test_output_dir_that_is_a_file_is_4(self, dataset, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("")
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"data": str(dataset), "mechanisms": ["sh"],
                                      "repeats": 1, "out_dir": str(afile)}))
        argv = {
            "synth": ["synth", "--levels", "2", "--out", str(afile)],
            "sweep": ["sweep", "--config", str(config)],
        }[command]
        capsys.readouterr()
        assert run(*argv) == 4
        assert f"cannot write {afile}" in capsys.readouterr().err

    def test_sweep_data_that_is_not_a_path_is_4_before_any_open(self, tmp_path, monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_dataset", loaded.append)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"data": 5, "mechanisms": ["inftda"], "repeats": 1,
                                      "out_dir": str(tmp_path)}))
        assert run("sweep", "--config", str(config)) == 4
        assert loaded == []

    @pytest.mark.parametrize(
        "sidecar",
        ["[1]", '"x"', '{"mechanism": ["sh"], "tree": "destination"}', '{"mechanism": 5}'],
        ids=["list", "string", "mechanism-list", "mechanism-number"],
    )
    def test_malformed_release_sidecar_is_3(self, dataset, tmp_path, sidecar):
        rel = tmp_path / "rel.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", str(rel)) == 0
        (tmp_path / "rel.meta.json").write_text(sidecar)
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3

    @pytest.mark.parametrize("reader", ["hierarchy", "trips", "release", "sidecar", "sweep"])
    def test_non_utf8_input_is_3(self, dataset, tmp_path, capsys, reader):
        ds, bad, rel = tmp_path / "ds", str(tmp_path / "bad"), str(tmp_path / "rel.csv")
        (tmp_path / "bad").write_bytes(b"a,b\n\xff\xfe,c\n")
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", rel) == 0
        hier_o, hier_d, trips = (str(ds / name) for name in (
            "origin_hierarchy.csv", "destination_hierarchy.csv", "trips.csv"))
        report = str(tmp_path / "report.csv")
        argv = {
            "hierarchy": ["ingest", "--hierarchy-o", bad, "--hierarchy-d", hier_d,
                          "--trips", trips, "--out", str(tmp_path / "x.bin")],
            "trips": ["ingest", "--hierarchy-o", hier_o, "--hierarchy-d", hier_d,
                      "--trips", bad, "--out", str(tmp_path / "x.bin")],
            "release": ["evaluate", "--truth", str(dataset), "--release", bad, "--out", report],
            "sidecar": ["evaluate", "--truth", str(dataset), "--release", rel,
                        "--meta", bad, "--out", report],
            "sweep": ["sweep", "--config", bad],
        }[reader]
        capsys.readouterr()
        assert run(*argv) == 3
        assert f"cannot read {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["sidecar", "sweep"])
    def test_deeply_nested_json_is_3(self, dataset, tmp_path, capsys, reader):
        nested, rel = tmp_path / "nested.json", str(tmp_path / "rel.csv")
        nested.write_text("[" * 100_000)
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", rel) == 0
        argv = {
            "sidecar": ["evaluate", "--truth", str(dataset), "--release", rel,
                        "--meta", str(nested), "--out", str(tmp_path / "report.csv")],
            "sweep": ["sweep", "--config", str(nested)],
        }[reader]
        capsys.readouterr()
        assert run(*argv) == 3
        assert f"{nested} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["release-out", "release-meta", "ingest", "evaluate"])
    def test_unwritable_output_is_4(self, dataset, tmp_path, capsys, target):
        ds, rel = tmp_path / "ds", str(tmp_path / "rel.csv")
        nowhere = str(tmp_path / "missing-dir" / "out")
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", rel) == 0
        release_cmd = ["release", "--data", str(dataset), "--mechanism", "inftda", "--rho", "1"]
        argv = {
            "release-out": [*release_cmd, "--out", nowhere],
            "release-meta": [*release_cmd, "--out", rel, "--meta", nowhere],
            "ingest": ["ingest", "--hierarchy-o", str(ds / "origin_hierarchy.csv"),
                       "--hierarchy-d", str(ds / "destination_hierarchy.csv"),
                       "--trips", str(ds / "trips.csv"), "--out", nowhere],
            "evaluate": ["evaluate", "--truth", str(dataset), "--release", rel, "--out", nowhere],
        }[target]
        capsys.readouterr()
        assert run(*argv) == 4
        assert f"cannot write {nowhere}" in capsys.readouterr().err

    def test_negative_release_depth_is_3(self, dataset, tmp_path, capsys):
        rel = tmp_path / "rel.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", str(rel)) == 0
        rel.write_text(rel.read_text() + "-1,a,b,3\n")
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3
        # a depth is ASCII digits alone
        assert "malformed release row ['-1', 'a', 'b', '3']" in capsys.readouterr().err

    @pytest.mark.parametrize("flow", ["2_6", "+26", " 26 ", "\u0662\u0666"])
    def test_flow_that_int_would_read_is_3(self, dataset, tmp_path, capsys, flow):
        rel = tmp_path / "rel.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", str(rel)) == 0
        header, root, *rows = rel.read_text(encoding="utf-8").splitlines()
        root = root.rsplit(",", 1)[0] + "," + flow
        rel.write_text("\n".join([header, root, *rows]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3
        assert "malformed release row" in capsys.readouterr().err

    def test_duplicate_release_row_is_3(self, dataset, tmp_path, capsys):
        rel = tmp_path / "rel.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", str(rel)) == 0
        rel.write_text(rel.read_text() + "0,__all__,__all__,999999\n")
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3
        assert "duplicate release row ['0', '__all__', '__all__', '999999']" in (
            capsys.readouterr().err)


def test_package_imports_without_numpy():
    # the package has no runtime dependency; numpy serves the tests alone
    src = os.path.dirname(os.path.dirname(inftda.__file__))
    code = "import sys, inftda, inftda.cli; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_package_surface():
    # every exported name is bound; the test oracles and dropped aliases are not
    modules = [inftda] + [importlib.import_module(f"inftda.{info.name}")
                          for info in pkgutil.iter_modules(inftda.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert [n for n in exported if not hasattr(module, n)] == [], module.__name__
    assert len(inftda.__all__) == len(set(inftda.__all__))
    for name in ("intopt_simple", "brute_force_oracle", "lower_bound", "parent_key"):
        assert not any(hasattr(module, name) for module in modules), name
    for name in ("aggregate_up", "substream", "derive_seed"):
        assert not hasattr(inftda, name), name
    assert not hasattr(inftda.HierTree, "parent_key")
