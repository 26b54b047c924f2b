"""The level-by-level leaf roll-up against the per-leaf path walk it replaced.

``aggregate_leaf_map`` feeds every release (through ``build_tree``) and every
leaf-mechanism evaluation, and the dict insertion order of its maps reaches
the top-down release's visiting order, so the roll-up must return the same
values in the same order as ``rollup_oracle``. Hierarchies are irregular
(depth 1-4, fan-out 1-3, area ids reused across levels), and leaf values
include negatives, zeros and sums that cancel to zero.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rollup_oracle import aggregate_leaf_map as oracle_aggregate
from rollup_oracle import parent_key
from rollup_oracle import validate_consistency as oracle_validate

from inftda import HierTree, aggregate_leaf_map, parse_hierarchy, validate_consistency

MODES = ("destination", "origin")


@st.composite
def hierarchies(draw, g):
    """Leaf-path rows of a ragged g-level hierarchy.

    Ids count up per level ("0", "1", ...), so the same id names different
    areas at different levels.
    """
    rows = []
    used = [0] * (g + 1)

    def grow(path):
        if len(path) == g:
            rows.append(path)
            return
        level = len(path) + 1
        for _ in range(draw(st.integers(1, 3))):
            grow(path + (str(used[level]),))
            used[level] += 1

    grow(())
    return parse_hierarchy(rows)


@st.composite
def instances(draw):
    g = draw(st.integers(1, 4))
    origin = draw(hierarchies(g))
    dest = draw(hierarchies(g))
    cells = draw(
        st.lists(
            st.tuples(
                st.sampled_from(origin.leaves),
                st.sampled_from(dest.leaves),
                st.integers(-3, 3),
            ),
            max_size=60,
        )
    )
    leaf_values = {}
    for o, d, value in cells:
        leaf_values[(o, d)] = value
    return origin, dest, leaf_values


def _items(maps):
    return [list(m.items()) for m in maps]


@settings(max_examples=300, deadline=None)
@given(instances())
def test_rollup_matches_oracle_values_and_order(instance):
    origin, dest, leaf_values = instance
    for mode in MODES:
        got = aggregate_leaf_map(leaf_values, origin, dest, mode)
        assert _items(got) == _items(oracle_aggregate(leaf_values, origin, dest, mode))


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_validate_consistency_matches_oracle(instance, data):
    origin, dest, leaf_values = instance
    for mode in MODES:
        levels = aggregate_leaf_map(leaf_values, origin, dest, mode)
        # break a few sums: bump, drop or orphan nodes at random depths
        for _ in range(data.draw(st.integers(0, 3))):
            depth = data.draw(st.integers(0, len(levels) - 1))
            if levels[depth] and data.draw(st.booleans()):
                key = data.draw(st.sampled_from(sorted(levels[depth])))
                if data.draw(st.booleans()):
                    levels[depth][key] += data.draw(st.integers(-2, 2))
                else:
                    del levels[depth][key]
            else:
                key = (
                    data.draw(st.sampled_from(origin.leaves)),
                    data.draw(st.sampled_from(dest.leaves)),
                )
                levels[-1][key] = levels[-1].get(key, 0) + 1
        tree = HierTree(mode, origin, dest, levels)
        assert validate_consistency(tree) == oracle_validate(tree)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_tree_steps_match_the_leaf_path_walk(instance):
    # every depth-k ancestor of a leaf pair is (path_o[ol], path_d[dl]) with
    # (ol, dl) = component_levels(k), and parent_key and child_keys agree on it
    origin, dest, _ = instance
    for mode in MODES:
        tree = HierTree(mode, origin, dest, [{} for _ in range(2 * origin.levels + 1)])
        for o in origin.leaves:
            for d in dest.leaves:
                walk = [next(iter(m)) for m in oracle_aggregate({(o, d): 1}, origin, dest, mode)]
                po, pd = origin.path(o), dest.path(d)
                for k, key in enumerate(walk):
                    ol, dl = tree.component_levels(k)
                    assert key == (po[ol], pd[dl])
                    if k:
                        assert parent_key(tree, key, k) == walk[k - 1]
                        assert key in tree.child_keys([walk[k - 1]], k - 1)[0]


@pytest.mark.parametrize("mode", MODES)
def test_cancelling_first_child_keeps_parent_order(mode):
    # leaf ("0", "0") and ("1", "0") cancel under origin area "0"; the oracle
    # still lists that parent first wherever it survives above
    origin = parse_hierarchy([("0", "0"), ("0", "1"), ("1", "2")])
    dest = parse_hierarchy([("0", "0"), ("1", "1")])
    leaf_values = {("0", "0"): 2, ("1", "0"): -2, ("2", "1"): 1, ("0", "1"): 4, ("2", "0"): 3}
    got = aggregate_leaf_map(leaf_values, origin, dest, mode)
    assert _items(got) == _items(oracle_aggregate(leaf_values, origin, dest, mode))
