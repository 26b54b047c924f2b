"""Frozen random streams of the exact samplers and of every mechanism.

Release CSVs are reproducible artefacts, so a fixed seed gives the same noise
until the samplers change on purpose; such a change re-pins the digests here
and says why. The digests pin the binary benchmark fixture end to end. Behind
the one-draw-per-call oracle in ``sampler_oracle``, every mechanism still
gives the digests it gave with the sampler that oracle froze, so a sampler
change is shown to change nothing but the noise. The pmf of the samplers is
checked in ``test_sampler_exact``.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from sampler_oracle import sample_discrete_gaussian as oracle_gaussian
from sampler_oracle import sample_discrete_laplace as oracle_laplace

from inftda import (
    PrivacyBudget,
    SensitivityModel,
    SynthSpec,
    baselines,
    build_tree,
    gen_dataset,
    per_level_sigma2,
    run_mechanism,
    sample_discrete_gaussian,
    sample_discrete_laplace,
    topdown,
)
from inftda.dpcore import RATIONAL_LIMIT, substream

DRAWS = 2000
BUDGET = PrivacyBudget.from_eps_delta(1.0, 1e-8)

SIGMA2S = [
    Fraction(1, 3),
    4,
    per_level_sigma2(BUDGET, SensitivityModel(), 16),
    per_level_sigma2(BUDGET, SensitivityModel(), 20),
    10**6,
]
# the per-level variances keep the ids they had as floats
SIGMA2_IDS = ["Fraction(1, 3)", "4", *(repr(float(s)) for s in SIGMA2S[2:4]), "1000000"]
SCALES = [
    2,
    Fraction(2) / Fraction(1.0).limit_denominator(RATIONAL_LIMIT),
    Fraction(2) / Fraction(0.3).limit_denominator(RATIONAL_LIMIT),
    Fraction(1, 3),
]
SAMPLERS = [
    pytest.param(sample_discrete_gaussian, s, id=f"gauss-{i}")
    for s, i in zip(SIGMA2S, SIGMA2_IDS)
] + [
    pytest.param(sample_discrete_laplace, s, id=f"laplace-{s!r}") for s in SCALES
]


@pytest.mark.parametrize("sampler, param", SAMPLERS)
def test_same_seed_same_draws_in_any_batching(sampler, param):
    # one call per draw, or batches of any size, consume the same bits
    ours, again = substream(11, "frozen", str(param)), substream(11, "frozen", str(param))
    single = [sampler(param, ours) for _ in range(DRAWS)]
    head = sampler(param, again, size=3)
    rest = sampler(param, again, size=DRAWS - 3)
    assert head + rest == single
    assert sampler(param, again, size=0) == []
    assert ours.getstate() == again.getstate()
    assert single != [sampler(param, substream(12, "frozen", str(param))) for _ in range(DRAWS)]


# SHA-256 of the released levels of the 256x256 binary fixture (seed 0),
# at eps=1, delta=1e-8, bounded m=1, release seed 0.
RELEASE_DIGESTS = {
    ("inftda", "ascending"):
        "27f32e66f8aca5185d77af37104e1d903f0ad29cca44492c6d540de1c4b6ad8b",
    ("inftda", "descending"):
        "1d3c24d5dd66f3b3b3fe9bf11c36b1104293dd4d878c492954d3bce1cc3a34f5",
    ("inftda", "random"):
        "f01bc8aea647ca40d17a115ac4f31a64c4503b69a0508dfd91973529331ca359",
    ("tda-l2", "ascending"):
        "4d13ff4339295a069b6c0ddd565902c045f3dbf9bacec5cc639d86a014cdc324",
    ("vanilla-gauss", "ascending"):
        "ff1ed9c73a7bd34e0b24f60c58bdd5ad400a85f4033dfe7ceb2361d22f01d21b",
    ("sh", "ascending"):
        "5aef151591f09ec1f1f7a1e3e0cd84759fdbf5fece3eb47df820956786acf0ad",
}

# The same, with the samplers that ``sampler_oracle`` froze: what every
# mechanism gave before the table-driven samplers.
ORACLE_DIGESTS = {
    ("inftda", "ascending"):
        "08c47e4320d6b6059d46d73a8cb20255ab4afa1588b54d816a35027d6823d144",
    ("inftda", "descending"):
        "acf12dd5cb21332566a856045916ef9fdeb1fe735f19e954213f64000371ee70",
    ("inftda", "random"):
        "751846710272700da0faa6055eee5cc04d6473bbd22cfd20378e8301a631ad14",
    ("tda-l2", "ascending"):
        "54b3175f1d40c7a937e250142a6dac5cc7a3ef0608200f5b6b402e9955c57d10",
    ("vanilla-gauss", "ascending"):
        "dbbf2cac3be0e572899912c07304cedf52b07bad0d50cade68f3106e66030c53",
    ("sh", "ascending"):
        "fbeb2cc6f1ea9bf9ed816387d950f69211322623a62af0b84576123541f005cc",
}


def _levels_digest(levels) -> str:
    h = hashlib.sha256()
    for depth, level in enumerate(levels):
        for (o, d), v in sorted(level.items()):
            h.update(f"{depth},{o},{d},{v}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def binary_fixture():
    table = gen_dataset(SynthSpec(kind="binary"), seed=0)
    return table, build_tree(table)


@pytest.mark.parametrize("mechanism, order", list(RELEASE_DIGESTS))
def test_release_digest_frozen(binary_fixture, mechanism, order):
    table, tree = binary_fixture
    levels, _ = run_mechanism(mechanism, table, tree, BUDGET, SensitivityModel(), order, 0)
    assert _levels_digest(levels) == RELEASE_DIGESTS[(mechanism, order)]


def _one_per_call(oracle):
    def sampler(param, rng, size=None):
        if size is None:
            return oracle(param, rng)
        return [oracle(param, rng) for _ in range(size)]
    return sampler


@pytest.mark.parametrize("mechanism, order", list(ORACLE_DIGESTS))
def test_release_digest_behind_the_oracle_samplers(binary_fixture, monkeypatch,
                                                   mechanism, order):
    gaussian = _one_per_call(oracle_gaussian)
    monkeypatch.setattr(topdown, "sample_discrete_gaussian", gaussian)
    monkeypatch.setattr(baselines, "sample_discrete_gaussian", gaussian)
    monkeypatch.setattr(baselines, "sample_discrete_laplace", _one_per_call(oracle_laplace))
    table, tree = binary_fixture
    levels, _ = run_mechanism(mechanism, table, tree, BUDGET, SensitivityModel(), order, 0)
    assert _levels_digest(levels) == ORACLE_DIGESTS[(mechanism, order)]


# ---------------------------------------------------------------------------
# exactness against the closed form, independent of any earlier sampler


@pytest.mark.parametrize("sigma2", [Fraction(1, 2), 2])
def test_gaussian_matches_closed_form_mass(sigma2):
    n = 200_000
    draws = sample_discrete_gaussian(sigma2, substream(3, "closed-form", str(sigma2)), size=n)
    radius = math.floor(6 * math.sqrt(sigma2))
    weights = {x: math.exp(-x * x / (2 * sigma2)) for x in range(-10 * radius, 10 * radius + 1)}
    norm = sum(weights.values())
    counts = {}
    for x in draws:
        counts[x] = counts.get(x, 0) + 1
    tv = 0.0
    for x in range(-radius, radius + 1):
        tv += abs(counts.get(x, 0) / n - weights[x] / norm)
    outside = sum(c for x, c in counts.items() if abs(x) > radius) / n
    tail = sum(w for x, w in weights.items() if abs(x) > radius) / norm
    tv = (tv + abs(outside - tail)) / 2
    # sampling noise alone gives TV ~0.002 here; a sigma-for-sigma2 slip gives ~0.1
    assert tv < 0.01, tv
