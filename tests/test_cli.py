"""End-to-end command line pipeline and exit-code contract."""

import json

import pytest

from inftda import cli, evaluate
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

    def test_sweep_with_synth_block(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "synth": {"kind": "binary", "levels": 3, "sparsity": "dense", "seed": 2},
            "mechanisms": ["inftda"],
            "epsilons": [2.0],
            "repeats": 2,
            "branching": 2,
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
            "privacy": "bounded", "m": 1, "distinct": True, "universe_cap": 10_000_000,
            "branching": None, "beta": 0.01, "out_dir": ".",
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
        assert run() == 2

    def test_data_error_is_3(self, tmp_path):
        assert run("ingest", "--hierarchy-o", "missing.csv", "--hierarchy-d", "m.csv",
                   "--trips", "t.csv", "--out", str(tmp_path / "x.bin")) == 3

    def test_config_error_is_4(self, dataset, tmp_path):
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
        assert run("release", "--data", str(dataset), "--mechanism", "vanilla-gauss",
                   "--rho", "1", "--universe-cap", "2", "--out", out) == 4

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
            ("sh", ["--epsilon", "1e-10", "--delta", "1e-8"]),
        ],
        ids=["inftda-rho-1e12", "tda-l2-rho-1e12", "inftda-rho-1e-320",
             "vanilla-gauss-rho-1e-320", "sh-eps-1e-10"],
    )
    def test_extreme_budget_is_4(self, dataset, tmp_path, capsys, mechanism, budget):
        # each snaps a sampler parameter to 0 or to no finite rational at all
        assert run("release", "--data", str(dataset), "--mechanism", mechanism,
                   *budget, "--out", str(tmp_path / "x.csv")) == 4
        assert "the budget rho=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", [{"epsilons": [0.0]}, {"epsilons": ["inf"]}, {"delta": 2.0}, {"m": 0}],
        ids=["eps-0", "eps-inf", "delta-2", "m-0"],
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
            {"beta": 2, "branching": 2},
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
        ],
        ids=["order-list", "out-dir-number", "branching-word", "branching-1", "beta-2",
             "tree-sideways", "mechanisms-string", "distinct-string", "distinct-number",
             "m-float", "m-bool", "repeats-float", "repeats-bool", "seed-float",
             "workers-bool", "universe-cap-float", "branching-float", "universe-cap-bool",
             "data-and-synth", "unknown-epsilon", "unknown-workers", "eps-bool",
             "delta-string"],
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
        assert "depths -1..4" in capsys.readouterr().err

    def test_duplicate_release_row_is_3(self, dataset, tmp_path, capsys):
        rel = tmp_path / "rel.csv"
        assert run("release", "--data", str(dataset), "--mechanism", "inftda",
                   "--rho", "1", "--out", str(rel)) == 0
        rel.write_text(rel.read_text() + "0,__all__,__all__,999999\n")
        assert run("evaluate", "--truth", str(dataset), "--release", str(rel),
                   "--out", str(tmp_path / "report.csv")) == 3
        assert "duplicate release row ['0', '__all__', '__all__', '999999']" in (
            capsys.readouterr().err)
