"""Frozen files of the command line release path.

``inftda release`` writes a release CSV and a ``.meta.json`` sidecar, and
``inftda evaluate`` scores the CSV; all three are reproducible artefacts for a
fixed seed. Each run here pins the SHA-256 of the release CSV, of the sidecar
with every ``wall_ms`` (the one timing field) removed, and of the evaluation
CSV, for every mechanism in both tree modes plus one unbounded release.
"""

import hashlib
import json

import pytest

from inftda.cli import main

BUDGET = ("--epsilon", "1", "--delta", "1e-8")

# (mechanism, tree, extra argv) -> (release CSV, sidecar minus wall_ms, evaluate CSV)
DIGESTS = {
    ("inftda", "destination", ()): (
        "54391c2433b20be44a46f8b923f1c885a4bab9a7933eaedc65ee9f0e423a8896",
        "689d13af21aaf077454ab5c46b9058277db7c4345b9a2244247c0d53ede5fb90",
        "fd8b134def372bf0223c0eff9e5d96a40874c5331148dd4f778999518a0d2a44",
    ),
    ("inftda", "origin", ()): (
        "5ca6a40a33b617b1afec9e3dbf97bef8e1f68ff0ba7a13ec0b455fd318ff4c43",
        "30a065bbaf47e441a7d86dcea8697f6b4152daa04f357abe15d135e5e4401c88",
        "ca3cff8063db62cceb98fe2a07bd3fae21bc53792e0bdd765a586431988c6c3a",
    ),
    ("tda-l2", "destination", ()): (
        "2c3e67cb37750e1c5e7a9eee816fbfa44e5e995478d56640f3d4558a94594077",
        "aa493eaae3c52ac54c5ea81e69d1721b5dddb8d7120f40e9ad5bd351cfcb5114",
        "df200c8fb842c94ba6e18febb3ef94da05692d560576a43a2fc4e6becc6b9ec4",
    ),
    ("tda-l2", "origin", ()): (
        "32924be65621297e7fd589e0c20ac09b30cadb99154a39d84ee09e1f56600d05",
        "26c2574748bc86d165c1a8839201618f32b579eb81c40f75fc49346812828689",
        "5d212e6ea9e213bccb7a22affd0242d8655d7268d11d2a4c0145327dc2b60477",
    ),
    ("tda-linf-random", "destination", ()): (
        "30248c5fdbcb336b1470092ade72b48bf00b5c3701239546dc3aa55e3cff6450",
        "a30c6c208782c82cbfff20c890361c638637ff02ebb598d307a403b90f201540",
        "ee71b408fb80ddb27071daf63a8b6c0652ad8fb4b017f502649f2b7d152d2f35",
    ),
    ("tda-linf-random", "origin", ()): (
        "7b99df0f6e5fb144ce11f669901e2f29dc587202965d0106bffdf29607f4d85f",
        "0f5fed1d391eb600fd080a48cf78c33ff5a1ff1df90c74895c14daed0012886a",
        "c67d9303f0bb3b730747fe52b48a4290e3824a7ba48ac9b17f6ca3ed150f92fa",
    ),
    ("vanilla-gauss", "destination", ()): (
        "3e21793a3704281a6f943c889436b886357e7bff3347c669eb9ca9222b620593",
        "86dfe66d1b1726e9ee58a524c81cf69babd6f693cfb03835a20d4a2b8540a89f",
        "ee4d6462c54e57466d3aace572733774b6edfe0d42c78dd761013b21d70d72d8",
    ),
    ("vanilla-gauss", "origin", ()): (
        "3e21793a3704281a6f943c889436b886357e7bff3347c669eb9ca9222b620593",
        "5fdba407ba49867f6bae97bfea7fe1d5f7eb58c37f5a3631e011adecdeb3673d",
        "02f9357ce48f13c26f610f8552e02799f78f5c7e0897ae00ef65fba9babb1e14",
    ),
    ("sh", "destination", ()): (
        "a03fd512bf7f0bdeb032b4fae22359fc9306e24900aadbc16e20321628c0adcf",
        "bc6ad7e589330f2765381368cff4ed498b705ef73cc77caa2ee1aba8bbc19899",
        "70944f80a7691b69d676c9ad65fa05e38d6ff097de3461178f7e6d1fc27eef37",
    ),
    ("sh", "origin", ()): (
        "a03fd512bf7f0bdeb032b4fae22359fc9306e24900aadbc16e20321628c0adcf",
        "6af32119099a5733d99e2b66fb0932a7aed69caf1ddf300454c38b9548e18f78",
        "e7ef41506186b91b6e679529460d33b1b1ad47008d17a31690dae5e370b98463",
    ),
    ("inftda", "destination", ("--privacy", "unbounded")): (
        "3794003bb832e1f07a7810eb6a2905fec47f1b41411da0c4c3f49955b458f56f",
        "d7589adbf7e043868cc507cef7d9cfa3bd9b25d4a24ce11b98e5c6d2a3d67bbc",
        "4dab343e6eed01ced7f13669d210518336037c0b22f69f798676e4e5e65c5ba8",
    ),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    out = root / "ds"
    assert main(["synth", "--kind", "random", "--levels", "2", "--sparsity", "dense",
                 "--seed", "3", "--out", str(out)]) == 0
    data = root / "data.bin"
    assert main(["ingest", "--hierarchy-o", str(out / "origin_hierarchy.csv"),
                 "--hierarchy-d", str(out / "destination_hierarchy.csv"),
                 "--trips", str(out / "trips.csv"), "--out", str(data)]) == 0
    return data


def _without_wall_ms(node):
    if isinstance(node, dict):
        return {k: _without_wall_ms(v) for k, v in node.items() if k != "wall_ms"}
    if isinstance(node, list):
        return [_without_wall_ms(v) for v in node]
    return node


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


RUNS = [
    (mechanism, tree, ())
    for mechanism in ("inftda", "tda-l2", "tda-linf-random", "vanilla-gauss", "sh")
    for tree in ("destination", "origin")
] + [("inftda", "destination", ("--privacy", "unbounded"))]


@pytest.mark.parametrize(
    "mechanism, tree, extra", RUNS, ids=[f"{m}-{t}{''.join(e)}" for m, t, e in RUNS]
)
def test_release_files_are_frozen(dataset, tmp_path, mechanism, tree, extra):
    rel = tmp_path / "rel.csv"
    assert main(["release", "--data", str(dataset), "--mechanism", mechanism, "--tree", tree,
                 *BUDGET, *extra, "--seed", "5", "--out", str(rel)]) == 0
    meta = json.loads((tmp_path / "rel.meta.json").read_text())
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--truth", str(dataset), "--release", str(rel),
                 "--out", str(report)]) == 0
    got = (
        _sha256(rel.read_bytes()),
        _sha256(json.dumps(_without_wall_ms(meta), indent=2).encode()),
        _sha256(report.read_bytes()),
    )
    assert got == DIGESTS[(mechanism, tree, extra)]
