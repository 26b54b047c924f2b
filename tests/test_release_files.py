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
        "8ca5a533af78b800900cc1d8f60068e3e20281a841dd3518bd47cb0ce897cc51",
        "6f46e7fbb44dd1bdc103e2af3b4798a8f5cbfa57edb51bf7c99a6698b3effb2f",
        "7689105e43799936d7e7d0f333c09488298e4b60aaf307ca2f9a58b2f3523475",
    ),
    ("inftda", "origin", ()): (
        "46a72ae136009fa60cccd9888d30fce645e2562f6e60a304c0811806c1fd874e",
        "c94688cf7f921edcd8d99a8ee580efa3bd992d7d54b561680472dc8414e3f2cb",
        "a48d66524e118dc424f8971f9658462bc16637f5c5ff185fd74695da2e9b39db",
    ),
    ("tda-l2", "destination", ()): (
        "214073d96fea849ebd44344cfa407e3ae2eb9c74a1f0d4042496b9e8e5e94cb4",
        "e973b4621390a72de86ea8da60554054f2c325debdf6f605db055469749c9c6c",
        "6d8245c1907b6493cfead11928aaabf7390a57fbbcd267c57dcd6bc5237d36d4",
    ),
    ("tda-l2", "origin", ()): (
        "3e408e93895935702bc5ff552621c5f9f3559f85f059bcf4388643d7cf33619a",
        "8869a222175508dee62b4812edb91f32c4ac7a3489b8ad5d9d44a1ee19a486c4",
        "811d41de212cdf455a10cbf1571a37e38049f7034c4fea1638c0c67b6dec3dba",
    ),
    ("tda-linf-random", "destination", ()): (
        "4a66d5f98226040a8020b8115882612e421118e9cda6bb18ab123d3ff56437ce",
        "9e06607d4f6ea6b167ed24d322c568e3c6e36d18ddef42338035ec2c35460d50",
        "435e3bf00074c6853c1d44dccb1310ac6a99d8d863e6d748d050d647324132f3",
    ),
    ("tda-linf-random", "origin", ()): (
        "e99de0816b1d546f3e380e7ed849d988774e23eea4214a1e4e1291b75460ce89",
        "18e4729c853e74fd0c4f06a7736cb6f4ce8c7778b8024aad9f318005542ae4ee",
        "81b01ab336233b52820a4ed49c6f0ef78c56ae1402d3f7aff2bb072e1e0eb8ec",
    ),
    ("vanilla-gauss", "destination", ()): (
        "a3eb782dc84089e1febe42925b3ce8701aaf5bafd2dc785c7c695b54f861c137",
        "86dfe66d1b1726e9ee58a524c81cf69babd6f693cfb03835a20d4a2b8540a89f",
        "be66eb012d3a4feba3b04add9534bda245434415c4f80362c6c00af3fe3fb4aa",
    ),
    ("vanilla-gauss", "origin", ()): (
        "a3eb782dc84089e1febe42925b3ce8701aaf5bafd2dc785c7c695b54f861c137",
        "5fdba407ba49867f6bae97bfea7fe1d5f7eb58c37f5a3631e011adecdeb3673d",
        "5b1e4b694e2e6381e5dba412ab349e8887fcfdeb2c57d511eb1b34ed2a845e79",
    ),
    ("sh", "destination", ()): (
        "e1515f5a6a26b110430f20a68e581a071c0a30098cd8e69696c01358a0e4c621",
        "617cfbcf6a6ea65b97d11a928359d03ddbf9ea6d3f056e58271f1d64f4124485",
        "c40dc6eb9a31ac5dacc5a37ff48ed67baf8fda45377c61a99ab6c546b9d0cf8a",
    ),
    ("sh", "origin", ()): (
        "e1515f5a6a26b110430f20a68e581a071c0a30098cd8e69696c01358a0e4c621",
        "c44a4fe8c89455eecd5b392ac6a95ffdb38d63354d327ef8d38805385c09f54f",
        "caac060b0a645e519fed60cbe4c756a2412e34e25f6d6946f19c0bfa7917b174",
    ),
    ("inftda", "destination", ("--privacy", "unbounded")): (
        "c4a372369bc2e45d6a7aac1b9c73a86abdfbeddbc3f8acf43b0d377ef8480273",
        "56b46c53044912d33a731e34b2502ba91b80880e47d51e7e7e8715fe911ab2b7",
        "21cda9e0eccb921f5ddf59847a65835f9f1dc760c4bc2a155011a6558d6dfee1",
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
