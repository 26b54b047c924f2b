"""Test-only oracle: the leaf roll-up and the consistency check as first written.

``aggregate_leaf_map`` walks every leaf's full ancestor path and adds the leaf
into all 2g+1 depths; ``validate_consistency`` finds each node's parent with
the checked ``parent_key``, the ``HierTree`` method it was before it left the
package. Kept verbatim so the equivalence tests can check that the
level-by-level roll-up returns the same values in the same dict insertion
order. Not imported by the package.
"""

from typing import Dict, List, Tuple

from inftda import DataError

Key = Tuple[str, str]


def parent_key(tree, key: Key, depth: int) -> Key:
    """The key one depth up that ``key`` at ``depth`` sums into."""
    tree._check_depth(depth)
    if depth == 0:
        raise DataError("the root has no parent")
    split_dest, level, _, up = tree._steps[depth - 1]
    o, d = key
    try:
        return (o, up[d]) if split_dest else (up[o], d)
    except KeyError as exc:
        raise DataError(f"unknown area {exc.args[0]!r} at level {level}") from None


def aggregate_leaf_map(leaf_values, origin, dest, mode) -> List[Dict[Key, int]]:
    if mode not in ("destination", "origin"):
        raise DataError(f"mode must be 'destination' or 'origin', got {mode!r}")
    g = origin.levels
    maps: List[Dict[Key, int]] = [dict() for _ in range(2 * g + 1)]
    for (o, d), value in leaf_values.items():
        if value == 0:
            continue
        po = origin.path(o)
        pd = dest.path(d)
        for lvl in range(g + 1):
            key = (po[lvl], pd[lvl])
            m = maps[2 * lvl]
            m[key] = m.get(key, 0) + value
        if mode == "destination":
            for lvl in range(g):
                key = (po[lvl], pd[lvl + 1])
                m = maps[2 * lvl + 1]
                m[key] = m.get(key, 0) + value
        else:
            for lvl in range(g):
                key = (po[lvl + 1], pd[lvl])
                m = maps[2 * lvl + 1]
                m[key] = m.get(key, 0) + value
    return [{k: v for k, v in m.items() if v != 0} for m in maps]


def validate_consistency(tree) -> List[Tuple[str, str, int]]:
    bad: List[Tuple[str, str, int]] = []
    for depth in range(tree.depth + 1):
        for (o, d), value in tree.levels[depth].items():
            if value < 0:
                bad.append((o, d, depth))
    for depth in range(tree.depth):
        sums: Dict[Key, int] = {}
        for key, value in tree.levels[depth + 1].items():
            parent = parent_key(tree, key, depth + 1)
            sums[parent] = sums.get(parent, 0) + value
        parent_map = tree.levels[depth]
        for key in set(parent_map) | set(sums):
            if parent_map.get(key, 0) != sums.get(key, 0):
                bad.append((key[0], key[1], depth))
    return sorted(set(bad))
