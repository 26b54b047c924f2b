"""End-to-end command line pipeline and exit-code contract."""

import json

import pytest

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
        ],
        ids=["eps-word", "eps-scalar", "m-word", "repeats-word", "synth-levels-word",
             "synth-string"],
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
