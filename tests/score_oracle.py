"""Frozen per-key reference scorers.

Verbatim copies of ``evaluate.max_abs_error_per_level``,
``evaluate.false_discovery_rate``, the positive-node count of
``evaluate.level_scores`` and ``hierarchy.validate_consistency`` as they stood
before the scorers became one C-level iterator pass per depth and side.
``tests/test_score_oracle.py`` holds the package to these outputs exactly: the
same ints, the same FDR floats, the same sorted violation list.
"""

from typing import Dict, List, Sequence, Tuple

from inftda.hierarchy import HierTree, Key, _sum_into_parents


def max_abs_error_per_level(
    true_tree: HierTree, released_levels: Sequence[Dict[Key, int]]
) -> List[int]:
    """Max |true - released| per depth, over the union of both supports."""
    out: List[int] = []
    for depth in range(true_tree.depth + 1):
        t = true_tree.levels[depth]
        r = released_levels[depth] if depth < len(released_levels) else {}
        keys = t.keys() | r.keys()
        out.append(max((abs(t.get(k, 0) - r.get(k, 0)) for k in keys), default=0))
    return out


def false_discovery_rate(
    true_tree: HierTree, released_levels: Sequence[Dict[Key, int]], depth: int
) -> float:
    """Percentage of released-positive nodes at ``depth`` with true count zero.

    Zero when nothing positive is released at that depth.
    """
    r = released_levels[depth] if depth < len(released_levels) else {}
    positives = [k for k, v in r.items() if v > 0]
    if not positives:
        return 0.0
    t = true_tree.levels[depth]
    false_pos = sum(1 for k in positives if t.get(k, 0) == 0)
    return 100.0 * false_pos / len(positives)


def positive_nodes(level: Dict[Key, int]) -> int:
    """The third score of ``level_scores`` at one depth."""
    return sum(1 for v in level.values() if v > 0)


def validate_consistency(tree: HierTree) -> List[Tuple[str, str, int]]:
    """Check non-negativity and parent = sum-of-children at every depth.

    Returns the keys in violation as (origin area, destination area, depth),
    deterministically ordered; an empty list means the tree is consistent.
    Absent keys read as zero, so an orphaned positive child surfaces as its
    parent's key.
    """
    bad: List[Tuple[str, str, int]] = []
    for depth in range(tree.depth + 1):
        for (o, d), value in tree.levels[depth].items():
            if value < 0:
                bad.append((o, d, depth))
    for depth, step in enumerate(tree._steps):
        sums = _sum_into_parents(tree.levels[depth + 1], step)
        parent_map = tree.levels[depth]
        for key in set(parent_map) | set(sums):
            if parent_map.get(key, 0) != sums.get(key, 0):
                bad.append((key[0], key[1], depth))
    return sorted(set(bad))
