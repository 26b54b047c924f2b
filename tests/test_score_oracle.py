"""The iterator-pass scorers against the per-key loops they replaced.

``tests/score_oracle.py`` freezes the per-key versions of the max absolute
error, the false discovery rate, the positive-node count and the consistency
check. Every score must come out exactly equal: the same ints, the same FDR
floats, and the same violation list in the same order. Inputs are seeded
random level maps (negative and zero released values, keys on one side only,
empty maps, a released list shorter than the tree, a truth holding zeros)
and two releases of the binary-complete fixture.
"""

import random
from itertools import product

import pytest
import score_oracle as oracle

from inftda import (
    HierTree,
    PrivacyBudget,
    SensitivityModel,
    SynthSpec,
    build_tree,
    false_discovery_rate,
    gen_dataset,
    max_abs_error_per_level,
    run_mechanism,
    validate_consistency,
)
from inftda.evaluate import level_scores

MODES = ("destination", "origin")


def universe(tree):
    """Every key of each depth, from the hierarchies."""
    out = []
    for depth in range(tree.depth + 1):
        ol, dl = tree.component_levels(depth)
        out.append(list(product(tree.origin.areas(ol), tree.dest.areas(dl))))
    return out


def random_levels(rng, keys, truth, length):
    """``length`` maps: per depth, some true keys dropped or changed, some
    others added, values from -3 to 5 (so zeros and negatives), or empty."""
    levels = []
    for depth in range(length):
        if rng.random() < 0.15:
            levels.append({})
            continue
        level = {k: v for k, v in truth.levels[depth].items() if rng.random() < 0.7}
        for k in rng.sample(keys[depth], min(len(keys[depth]), rng.randint(0, 6))):
            level[k] = rng.randint(-3, 5)
        if level and rng.random() < 0.5:
            k = rng.choice(sorted(level))
            level[k] += rng.choice((-1, 1))
        levels.append(level)
    return levels


def assert_scores_match(truth, released):
    assert max_abs_error_per_level(truth, released) == oracle.max_abs_error_per_level(
        truth, released)
    for depth in range(truth.depth + 1):
        got = false_discovery_rate(truth, released, depth)
        want = oracle.false_discovery_rate(truth, released, depth)
        assert type(got) is float and got == want
    if len(released) == truth.depth + 1:
        errors = oracle.max_abs_error_per_level(truth, released)
        assert level_scores(truth, released) == [
            (errors[d], oracle.false_discovery_rate(truth, released, d),
             oracle.positive_nodes(released[d]))
            for d in range(truth.depth + 1)
        ]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_random_level_maps_score_as_the_oracle(seed, mode):
    rng = random.Random(seed)
    table = gen_dataset(SynthSpec(kind="random", levels=2, sparsity=0.3), seed)
    truth = build_tree(table, mode)
    keys = universe(truth)
    for _ in range(30):
        length = rng.choice((truth.depth + 1, truth.depth + 1, rng.randint(0, truth.depth)))
        assert_scores_match(truth, random_levels(rng, keys, truth, length))
        if length == truth.depth + 1:
            tree = HierTree(mode, truth.origin, truth.dest, random_levels(rng, keys, truth, length))
            assert validate_consistency(tree) == oracle.validate_consistency(tree)


@pytest.mark.parametrize("mode", MODES)
def test_truth_holding_zeros_scores_as_the_oracle(trip_table, mode):
    # a hand-built truth whose maps hold explicit zeros, scored against
    # releases that put zeros, negatives and positives on those keys
    base = build_tree(trip_table, mode)
    levels = [dict(level) for level in base.levels]
    keys = universe(base)
    rng = random.Random(7)
    for depth in range(1, base.depth + 1):
        for k in rng.sample(keys[depth], 2):
            levels[depth].setdefault(k, 0)
    truth = HierTree(mode, base.origin, base.dest, levels)
    for released in (
        [dict.fromkeys(level, 0) for level in levels],
        [{k: -v for k, v in level.items()} for level in levels],
        [{k: 1 for k in keys[d]} for d in range(truth.depth + 1)],
        [{} for _ in levels],
        levels[:2],
        [],
    ):
        assert_scores_match(truth, released)
    assert validate_consistency(truth) == oracle.validate_consistency(truth)


def test_consistency_violations_match_in_order(trip_table):
    # a consistent tree, then a negative value, an orphaned child and a
    # changed parent: the same violation list, sorted, with no duplicates
    truth = build_tree(trip_table)
    assert validate_consistency(truth) == oracle.validate_consistency(truth) == []
    levels = [dict(level) for level in truth.levels]
    levels[4][("N.b", "E.x")] = 4
    levels[3][("S", "E.x")] = -1
    levels[1][("__all__", "W")] += 1
    tree = HierTree("destination", truth.origin, truth.dest, levels)
    got = validate_consistency(tree)
    assert got == oracle.validate_consistency(tree)
    assert got == sorted(set(got))
    assert {("S", "E.x", 3), ("N", "E.x", 3), ("__all__", "W", 1)} <= set(got)


@pytest.fixture(scope="module")
def binary_complete():
    table = gen_dataset(SynthSpec(kind="binary"), 0)
    return table, build_tree(table)


@pytest.mark.parametrize("mechanism", ["inftda", "vanilla-gauss"])
def test_binary_complete_releases_score_as_the_oracle(binary_complete, mechanism):
    table, truth = binary_complete
    budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
    released, _ = run_mechanism(mechanism, table, truth, budget, SensitivityModel(),
                                "ascending", 0)
    assert_scores_match(truth, released)
    tree = HierTree(truth.mode, truth.origin, truth.dest, released)
    bad = validate_consistency(tree)
    assert bad == oracle.validate_consistency(tree)
    # the tree release is consistent; the rolled-up flat release keeps its negatives
    assert (bad == []) == (mechanism == "inftda")
    assert validate_consistency(truth) == oracle.validate_consistency(truth) == []
