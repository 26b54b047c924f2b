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
        "b8d2c43f8e57e3acde7b3fbdb6c0252582fd9dbe46adb5ec1c6fcf7f956e354c",
        "5c063e5bd0bf33c672332b222ae98b3390b73b6c27706c65bb7ee56f521a43ba",
        "0c7c38d5abc9a6bda79e2ccba3aa16a3b5672adcb80b8b9cf7ae1db747ed618b",
    ),
    ("inftda", "origin", ()): (
        "5a3bd71c815983e500e267c7bb6adac209d189b95e8f48e95e227e2ae0c2d816",
        "68e1ff1d04b51920312713eb045993439c1aa3e0df3d8f21262b6049ba669183",
        "9d862adbffe0bc15c91e7465f852ad0aa436d20647689ae1f8549a507ba2ca8c",
    ),
    ("tda-l2", "destination", ()): (
        "eb316927251e301882957acad7d4d22ea0ab100b94a8cf70f61b3a22482bedea",
        "3fafd11f3ee6a8c878cf3da3ce6c8e922b27b3189e6c44514eea3a81a89ed695",
        "62a348462e53193baa84f7ff7307d60b66bf9405163654d2f802c64e7a0cf1b7",
    ),
    ("tda-l2", "origin", ()): (
        "a74f8800811f7c309f18ca006fe21031cb9a261c3471d5ec69208b89f2bf3221",
        "1583237315fbd51ece298b1e1bc8b610797c04b4d6d9a41c12df63f644cd84b3",
        "5fc2d9751ce393151a8954db504e674ae08c45293a7e287ed104ef59037143dd",
    ),
    ("tda-linf-random", "destination", ()): (
        "51469e583170b9058b07ab2d8c8abfcb1d018183ed8d0520e355b3a8fd84aa2b",
        "5031d4913f7249b01bec255a0cb4f1b1bd2502a260e48b78e29d8f9b38d34aaf",
        "e475b5f507df56a7813d9d49aa970064ba4735682adf1313e3f9ce62cb2433ed",
    ),
    ("tda-linf-random", "origin", ()): (
        "9c67911da88e845f26d1504a2b6830974f2e1b207996e7d8f4b63fa124daa94e",
        "e8c8c6b1a8297a948d5541993f472e677186c459729380faabc6f6204215bf3a",
        "6e986d9baf6c3ea258ae8d96cdab92a2a6c570199762c135967e1ea26da0a3b1",
    ),
    ("vanilla-gauss", "destination", ()): (
        "bf104eb8318019e02f32a7067cd0316a7a658b41eed8cf8e8c3ff79320749ad4",
        "86dfe66d1b1726e9ee58a524c81cf69babd6f693cfb03835a20d4a2b8540a89f",
        "1ffd60d1ab2fdd4b8cf82d59ba1636b776e81e7163b3b86defe46d16d21624a9",
    ),
    ("vanilla-gauss", "origin", ()): (
        "bf104eb8318019e02f32a7067cd0316a7a658b41eed8cf8e8c3ff79320749ad4",
        "5fdba407ba49867f6bae97bfea7fe1d5f7eb58c37f5a3631e011adecdeb3673d",
        "c1e329ae785297c70eae82c0f44c3fdf5858cba04604684f073f62a6dfcb8311",
    ),
    ("sh", "destination", ()): (
        "e1515f5a6a26b110430f20a68e581a071c0a30098cd8e69696c01358a0e4c621",
        "bc6ad7e589330f2765381368cff4ed498b705ef73cc77caa2ee1aba8bbc19899",
        "c40dc6eb9a31ac5dacc5a37ff48ed67baf8fda45377c61a99ab6c546b9d0cf8a",
    ),
    ("sh", "origin", ()): (
        "e1515f5a6a26b110430f20a68e581a071c0a30098cd8e69696c01358a0e4c621",
        "6af32119099a5733d99e2b66fb0932a7aed69caf1ddf300454c38b9548e18f78",
        "caac060b0a645e519fed60cbe4c756a2412e34e25f6d6946f19c0bfa7917b174",
    ),
    ("inftda", "destination", ("--privacy", "unbounded")): (
        "3eaab35becb67fe691c60de790a075c4ad7a4b8e878708803d79d49025222423",
        "ac340320be2b38078ec80ce30b8728b700ebb90f361e42a06de63ca5795a1b0c",
        "d7eb0cbfbbbdd549d8a6f44b59c4c21e03bd1a060a0a86254c1c1d74b2a3ba10",
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
