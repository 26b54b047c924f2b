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
        "248cf37515a55c49c528cde5fa298dafee632492c54950f77edc34e9c229838a",
        "7594fb70b632e8fede6653662d8a333eb90526316f08711b4c7286077dfc0e58",
        "00b3a763331f020b9dc114e6e6f85e745976c524cd3031bf7aaad5a996fecea9",
    ),
    ("inftda", "origin", ()): (
        "dfa6915707dd6bc934b444cb29fdb02dfa3abe112f5f3b9e6ea9b958afecabaa",
        "f669ffa512a4b8ce7bff2c114056b38fb1f6aa5a356ebe8835461afe7099e031",
        "04b9d48db716d9c4ead42bd901045ecb1ce15437aa73a87ba4e0582ba3960841",
    ),
    ("tda-l2", "destination", ()): (
        "cc77ed65a49d7174983c8dbdd4a792d3df709ddf0394de1ca1664da5fb015947",
        "fd0ed5993405855975bc8665f86daa84cec8098a31ddd8af7d0ad59c790cf841",
        "42db3f61b36c78510f688dafd730245d8ec31de4dc8b5414a33f3432c203de06",
    ),
    ("tda-l2", "origin", ()): (
        "947da656434b483ef5b27b6da728d2a314cd0dd50b280633317b48269362496c",
        "4ccd0d683f0947b86b5cfe26e7351103345c8926bb30a18cb6c79926a9fb03af",
        "243ecaf508b34484c3ad87560e9d8735575aa9eef83f57fdccdbc08a177502b9",
    ),
    ("tda-linf-random", "destination", ()): (
        "3f41671c6c6871a60a6610884a164486f0f4e50ad07279e564c1016714df3fed",
        "e28161437f1a1f2c265ca2977c5b75821d401ac7d75e24c9295ed0a6c20cac66",
        "70abe8568a4f8664d797df99e9d86da9ca274013d6ca3cab73a872100361fc97",
    ),
    ("tda-linf-random", "origin", ()): (
        "93648f69af69fe8c6fa91b94050ed73afe04e7cc6d061629467f8de68dfa2805",
        "a4e0b9f5fcab4206b2c0602dd58824d6b52c61ef9cfa8f398e91be1ea637b43b",
        "f21d8e05cb699c37f0175ec80d1f4d8d0050647319777b8cdc204ada1b9a58e5",
    ),
    ("vanilla-gauss", "destination", ()): (
        "9783aec9c79055587eb526077ce6cdaf37bce673f3d8e775d2accc72d4c50ecf",
        "86dfe66d1b1726e9ee58a524c81cf69babd6f693cfb03835a20d4a2b8540a89f",
        "b4f6aeac435cfbde5cbd96685acce0c8f1cae0aaecd9bde468daf8fcf11d22a9",
    ),
    ("vanilla-gauss", "origin", ()): (
        "9783aec9c79055587eb526077ce6cdaf37bce673f3d8e775d2accc72d4c50ecf",
        "5fdba407ba49867f6bae97bfea7fe1d5f7eb58c37f5a3631e011adecdeb3673d",
        "1bd12c1b2636c951ee51fd576573f1d40802f04f1343cae3a3919ae4df20bffd",
    ),
    ("sh", "destination", ()): (
        "efbb6151551fb18639b87e29c857feed54f7dfdf6d5f03f80e473bf26a9abd79",
        "bc6ad7e589330f2765381368cff4ed498b705ef73cc77caa2ee1aba8bbc19899",
        "450b900ff4918001311f0fb0e08d8af673cfcaf92c7bd80e549cf1a5339661ce",
    ),
    ("sh", "origin", ()): (
        "efbb6151551fb18639b87e29c857feed54f7dfdf6d5f03f80e473bf26a9abd79",
        "6af32119099a5733d99e2b66fb0932a7aed69caf1ddf300454c38b9548e18f78",
        "0c0946967cf9d44a7a6713a0612de35d5be7a5c7bae946e71500e6a1496ff4c9",
    ),
    ("inftda", "destination", ("--privacy", "unbounded")): (
        "92614e24f36ca7d1845cba4c2dbb8b2bb3cad9167cf69ae8c093b13032b82890",
        "ce6f7f9dca55b00ed4fdba329bf09d7adae2e3c5b2b7429d1849e0d60e3a3d88",
        "486c4a152e2526b8867515551bfeb7b14ef68b8d7d7e577618eb4f4d353e441e",
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
