"""The level descent of the top-down release on trees of mixed fan-out.

``topdown.release`` noises all the parents that share a stream in one sampler
call and solves them in one solver call. The benchmark's trees are binary, so
here the hierarchies split areas into 1, 2, 3 or 5 parts, and every release
of a mechanism whose solver reads no randomness (``inftda`` ascending and
descending, ``tda-l2``) must equal, byte for byte, the frozen per-parent
descent of ``descent_oracle`` run with the frozen reference solvers.
``tda-linf-random`` reads its shuffles from the stream after the noise, so it
is checked for consistency and for the same output at any CPU count.
"""

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
    return {len(tree.child_keys(key, depth)) for depth in range(tree.depth)
            for key, value in released.levels[depth].items() if value > 0}


def _reference_solvers(mechanism):
    if mechanism == "tda-l2":
        return lambda noisy, total, order, rng: euclidean_solve(noisy, total)
    return lambda noisy, total, order, rng: intopt_simple(noisy, total, order, rng).values


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
    monkeypatch.setattr(topdown, "PARALLEL_MIN_NODES", 0)
    tree = build_tree(table, mode)
    config = ReleaseConfig(budget=BUDGET, sensitivity=sens, order="random", seed=6)
    runs = {}
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        rel = run_release("tda-linf-random", table, mode, tree, config)
        assert validate_consistency(rel.tree) == []
        runs[cpus] = [sorted(level.items()) for level in rel.tree.levels]
    assert forks.count == 1 + 3
    assert runs[1] == runs[2] == runs[4]
