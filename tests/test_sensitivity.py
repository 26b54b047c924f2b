"""Proof by enumeration that a tree release spends no more than its budget.

On tiny hierarchy pairs (g <= 2, fan-out <= 3), every neighbouring pair of
trip tables is enumerated for each sensitivity model: bounded and unbounded,
m in {1, 2, 3}, distinct trips or not. Two neighbouring tables differ by one
user's trips, so each pair's change of the true count vector at a depth is
the change that user makes: in unbounded mode the user's trips are added (up
to m of them), in bounded mode one set of up to m trips is swapped for
another of the same size (the total, which bounded releases publish, stays).
The largest squared L2 change per depth must never exceed the charge the
release makes for that depth, must reach it at some depth, and summed as
Delta^2 / (2 sigma^2) over the variances the release actually samples with
must stay within ``budget.rho`` (zCDP composes additively, Bun & Steinke
2016; the discrete Gaussian costs Delta^2 / (2 sigma^2), Canonne, Kamath &
Steinke 2020).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import pytest

from inftda import (
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    build_tree,
    ingest_trips,
    parse_hierarchy,
    release,
)
from inftda import topdown

M_MAX = 3

# (origin rows, destination rows): three leaves a side, g = 1 and g = 2
SHAPES = {
    "g1-fanout3": ([("a",), ("b",), ("c",)], [("x",), ("y",), ("z",)]),
    "g2-fanout2": (
        [("A", "a1"), ("A", "a2"), ("B", "b1")],
        [("X", "x1"), ("Y", "y1"), ("Y", "y2")],
    ),
    "g2-fanout3": (
        [("A", "a1"), ("A", "a2"), ("A", "a3")],
        [("X", "x1"), ("X", "x2"), ("Y", "y1")],
    ),
}
MODES = ("destination", "origin")


def hierarchies(shape):
    origin_rows, dest_rows = SHAPES[shape]
    return parse_hierarchy(origin_rows), parse_hierarchy(dest_rows)


def l2_squared(a, b):
    return sum((a.get(k, 0) - b.get(k, 0)) ** 2 for k in a.keys() | b.keys())


@lru_cache(maxsize=None)
def contributions(shape, mode, distinct):
    """For each trip count s = 1..M_MAX, the per-depth count maps of every
    set (distinct) or multiset of s trips one user can make."""
    origin, dest = hierarchies(shape)
    pairs = list(product(origin.leaves, dest.leaves))
    choose = combinations if distinct else combinations_with_replacement
    out = {}
    for size in range(1, M_MAX + 1):
        out[size] = [
            build_tree(ingest_trips(trips, origin, dest), mode).levels
            for trips in choose(pairs, size)
        ]
    return out


@lru_cache(maxsize=None)
def max_change(shape, mode, privacy, distinct, size):
    """Per depth, the largest squared L2 change between neighbouring tables
    in which the differing user makes ``size`` trips."""
    users = contributions(shape, mode, distinct)[size]
    depths = range(len(users[0]))
    if privacy == "unbounded":
        return [max(l2_squared(u[d], {}) for u in users) for d in depths]
    return [max(l2_squared(u[d], v[d]) for u, v in combinations(users, 2)) for d in depths]


def enumerated_delta2(shape, mode, sens):
    """Per depth, the largest squared L2 change over every neighbouring pair."""
    per_size = [max_change(shape, mode, sens.privacy, sens.distinct, s)
                for s in range(1, sens.m + 1)]
    return [max(column) for column in zip(*per_size)]


def sampled_variances(shape, mode, sens, budget, monkeypatch):
    """(root variance or None, the one per-level variance) a release draws with;
    every pair holds 100 trips, so every parent is positive and every level drawn."""
    origin, dest = hierarchies(shape)
    trips = [(o, d, 100) for o, d in product(origin.leaves, dest.leaves)]
    drawn = {"root": [], "levels": set()}
    sample = topdown.sample_discrete_gaussian

    def recording(sigma2, rng, size=None):
        if size is None:
            drawn["root"].append(sigma2)
        else:
            drawn["levels"].add(sigma2)
        return sample(sigma2, rng, size)

    with monkeypatch.context() as patch:
        patch.setattr(topdown, "sample_discrete_gaussian", recording)
        release(build_tree(ingest_trips(trips, origin, dest), mode),
                ReleaseConfig(budget=budget, sensitivity=sens, seed=0))
    (level,) = drawn["levels"]
    (root,) = drawn["root"] or [None]
    return root, level


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "non-distinct"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("privacy", ["bounded", "unbounded"])
def test_every_level_charge_covers_its_worst_neighbour(monkeypatch, privacy, m, distinct):
    sens = SensitivityModel(privacy, m, distinct)
    charge = sens.level_gs2_squared
    budget = PrivacyBudget.from_rho(0.5)
    for shape, mode in product(SHAPES, MODES):
        delta2 = enumerated_delta2(shape, mode, sens)
        where = f"{shape}, {mode} mode: per-depth max {delta2}, charged {charge}"
        # the root: the published total in bounded mode, sensitivity m unbounded
        assert delta2[0] == (m * m if privacy == "unbounded" else 0), where
        assert max(delta2[1:]) <= charge, where
        assert charge in delta2[1:], where
        root, level = sampled_variances(shape, mode, sens, budget, monkeypatch)
        assert (root is not None) == (privacy == "unbounded")
        spent = sum(Fraction(d2) / (2 * level) for d2 in delta2[1:])
        if root is not None:
            spent += Fraction(delta2[0]) / (2 * root)
        assert spent <= Fraction(budget.rho), where
