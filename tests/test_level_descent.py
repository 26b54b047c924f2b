"""The level descent of the top-down release on trees of mixed fan-out.

``topdown.release`` noises all the parents that share a stream in one sampler
call and solves them in one solver call. The benchmark's trees are binary, so
here the hierarchies split areas into 1, 2, 3 or 5 parts, and every release
of a mechanism whose solver reads no randomness (``inftda`` ascending and
descending, ``tda-l2``) must equal, byte for byte, the frozen per-parent
descent of ``descent_oracle`` run with the frozen reference solvers.
``tda-linf-random`` reads its shuffles from the stream after the noise, so it
is checked for consistency, for the same output at any CPU count, and
against the SHA-256 of its release, so that a solver reading the shuffles out
of segment order fails.
"""

import hashlib
import random

import pytest
from descent_oracle import per_parent_release
from intopt_oracle import intopt_simple
from l2_oracle import euclidean_solve

from inftda import (
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    build_tree,
    ingest_trips,
    parse_hierarchy,
    validate_consistency,
)
from inftda import topdown
from inftda.evaluate import run_release

BUDGET = PrivacyBudget.from_eps_delta(1.0, 1e-8)
ARITIES = (1, 2, 3, 5)
SENSITIVITIES = [SensitivityModel("bounded", 1), SensitivityModel("unbounded", 4)]
SENS_IDS = ["bounded-m1", "unbounded-m4"]


def _hierarchy(rng, prefix, levels):
    paths = [()]
    for _ in range(levels):
        paths = [path + (f"{path[-1] if path else prefix}.{i}",)
                 for path in paths for i in range(rng.choice(ARITIES))]
    return parse_hierarchy(paths)


@pytest.fixture(scope="module")
def table():
    rng = random.Random(20)
    origin, dest = _hierarchy(rng, "o", 4), _hierarchy(rng, "d", 4)
    rows = [(o, d, rng.randint(1, 60)) for o in origin.leaves for d in dest.leaves
            if rng.random() < 0.6]
    return ingest_trips(rows, origin, dest)


def _fanouts(tree, released):
    # the child counts of the parents the release expanded
    return {size for depth in range(tree.depth)
            for size in tree.child_keys([key for key, value in released.levels[depth].items()
                                         if value > 0], depth)[1]}


def _reference_solvers(mechanism):
    if mechanism == "tda-l2":
        return lambda noisy, total, order, rng: euclidean_solve(noisy, total)
    return lambda noisy, total, order, rng: intopt_simple(noisy, total, order, rng).values


# SHA-256 of repr([sorted(level.items()) for level in release.tree.levels]) of
# the random-order release below, by (mode, privacy)
RANDOM_DIGESTS = {
    ("destination", "bounded"): "eeeb277489e728abe3e6e6b73cfafe22954403cbd3d94728c30886d05457125d",
    ("destination", "unbounded"): "81bdaec9e7d6df8d0ed9bf2195f43ee3c63b6f7382991072145819d143c46544",
    ("origin", "bounded"): "b8baf76b8cfc2024cade3c5927487f301696daab709692c76a23697b79c0ce88",
    ("origin", "unbounded"): "23fc5acbec0a00ab762544a4bd6fed38c8171cf4305a9519c52267ac5c287daf",
}

RUNS = [("inftda", "ascending"), ("inftda", "descending"), ("tda-l2", "ascending")]


@pytest.mark.parametrize("block_nodes", [64, 4])
@pytest.mark.parametrize("sens", SENSITIVITIES, ids=SENS_IDS)
@pytest.mark.parametrize("mode", ["destination", "origin"])
@pytest.mark.parametrize("mechanism, order", RUNS, ids=[f"{m}-{o}" for m, o in RUNS])
def test_level_release_equals_the_per_parent_descent(table, monkeypatch, mechanism, order,
                                                     mode, sens, block_nodes):
    monkeypatch.setattr(topdown, "BLOCK_NODES", block_nodes)
    tree = build_tree(table, mode)
    config = ReleaseConfig(budget=BUDGET, sensitivity=sens, order=order, seed=4)
    rel = run_release(mechanism, table, mode, tree, config)
    assert _fanouts(tree, rel.tree) == set(ARITIES)
    expected = per_parent_release(tree, config, _reference_solvers(mechanism), block_nodes)
    assert [sorted(level.items()) for level in rel.tree.levels] == (
        [sorted(level.items()) for level in expected])
    # block streams serve the deep levels, parents' own streams the shallow ones
    assert 1 < next(d for d, level in enumerate(expected) if len(level) >= block_nodes) < 6


@pytest.mark.parametrize("sens", SENSITIVITIES, ids=SENS_IDS)
@pytest.mark.parametrize("mode", ["destination", "origin"])
def test_random_order_release_is_consistent_at_1_2_and_4_cpus(table, forks, monkeypatch,
                                                             mode, sens):
    monkeypatch.setattr(topdown, "BLOCK_NODES", 4)
    tree = build_tree(table, mode)
    config = ReleaseConfig(budget=BUDGET, sensitivity=sens, order="random", seed=6)
    runs = {}
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        rel = run_release("tda-linf-random", table, mode, tree, config)
        assert validate_consistency(rel.tree) == []
        runs[cpus] = [sorted(level.items()) for level in rel.tree.levels]
    assert forks.count == 0  # a release runs on one CPU
    assert runs[1] == runs[2] == runs[4]
    digest = hashlib.sha256(repr(runs[1]).encode()).hexdigest()
    assert digest == RANDOM_DIGESTS[(mode, sens.privacy)]
