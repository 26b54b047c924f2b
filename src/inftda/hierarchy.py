"""Partition hierarchies, trip tables, and the hierarchical O/D tree.

A partition hierarchy is a g-level recursive partition of a space of areas:
level 0 is the whole space (a single synthetic root area), level g are the
leaves, and every level-l area is the disjoint union of its level-(l+1)
children. Origin and destination spaces carry one hierarchy each, with equal
depth.

The tree over an O/D trip table interleaves the two hierarchies one refinement
at a time. In destination mode the key at even depth 2l is
(origin area at level l, destination area at level l) and the expansion to odd
depth 2l+1 splits the destination; the odd-to-even expansion splits the
origin. Origin mode mirrors this. The tree therefore has depth T = 2g, node
attributes are trip counts, and every internal node's attribute equals the sum
over its children (counting queries are consistent by construction).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import DataError

__all__ = [
    "ROOT_AREA",
    "PartitionHierarchy",
    "TripTable",
    "HierTree",
    "parse_hierarchy",
    "ingest_trips",
    "build_tree",
    "validate_consistency",
]

# Synthetic id of the level-0 area (the whole space). Collisions with data ids
# are harmless: keys are compared within one level only.
ROOT_AREA = "__all__"

Key = Tuple[str, str]


class PartitionHierarchy:
    """A g-level recursive partition, indexable by (level, area id).

    Area ids live in per-level namespaces: the same id at two different levels
    names two different areas. Construct through ``parse_hierarchy``.
    """

    def __init__(
        self,
        areas: List[Tuple[str, ...]],
        children: List[Dict[str, Tuple[str, ...]]],
        parents: List[Dict[str, str]],
    ) -> None:
        self._areas = areas
        self._children = children
        self._parents = parents

    @property
    def levels(self) -> int:
        """Depth g (leaves live at level g)."""
        return len(self._areas) - 1

    def areas(self, level: int) -> Tuple[str, ...]:
        self._check_level(level)
        return self._areas[level]

    @property
    def leaves(self) -> Tuple[str, ...]:
        return self._areas[-1]

    def contains(self, level: int, area: str) -> bool:
        self._check_level(level)
        if level == 0:
            return area == ROOT_AREA
        return area in self._parents[level]

    def children(self, level: int, area: str) -> Tuple[str, ...]:
        """Children (at level+1) of ``area`` at ``level``; sorted, stable."""
        if not 0 <= level < self.levels:
            raise DataError(f"no children below level {level} (hierarchy depth {self.levels})")
        try:
            return self._children[level][area]
        except KeyError:
            raise DataError(f"unknown area {area!r} at level {level}") from None

    def parent(self, level: int, area: str) -> str:
        if not 1 <= level <= self.levels:
            raise DataError(f"level {level} has no parent level")
        try:
            return self._parents[level][area]
        except KeyError:
            raise DataError(f"unknown area {area!r} at level {level}") from None

    def path(self, leaf: str) -> Tuple[str, ...]:
        """Ancestor chain of a leaf, root first: (ROOT_AREA, a_1, ..., a_g)."""
        if leaf not in self._parents[self.levels]:
            raise DataError(f"unknown leaf {leaf!r}")
        chain = [leaf]
        for level in range(self.levels, 0, -1):
            chain.append(self._parents[level][chain[-1]])
        chain.reverse()
        return tuple(chain)

    def subtree_leaves(self, level: int, area: str) -> Tuple[str, ...]:
        """All leaves under ``area`` at ``level``."""
        if not self.contains(level, area):
            raise DataError(f"unknown area {area!r} at level {level}")
        frontier = [area]
        for lvl in range(level, self.levels):
            frontier = [c for a in frontier for c in self._children[lvl][a]]
        return tuple(frontier)

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.levels:
            raise DataError(f"level {level} outside [0, {self.levels}]")


def parse_hierarchy(rows: Iterable[Sequence[str]]) -> PartitionHierarchy:
    """Build a hierarchy from leaf paths (one row per leaf, g columns, no header).

    Rejected: empty input, ragged rows, empty fields, two rows assigning
    different parents to the same area id, and duplicate leaf rows.
    """
    parents: List[Dict[str, str]] = []
    g = None
    n_rows = 0
    for row in rows:
        fields = [str(f).strip() for f in row]
        if g is None:
            g = len(fields)
            if g < 1:
                raise DataError("hierarchy rows must have at least one column")
            parents = [dict() for _ in range(g + 1)]
        elif len(fields) != g:
            raise DataError(f"ragged hierarchy row {fields!r}: expected {g} columns")
        if any(not f for f in fields):
            raise DataError(f"empty area id in hierarchy row {fields!r}")
        n_rows += 1
        above = ROOT_AREA
        for level, area in enumerate(fields, start=1):
            seen = parents[level].get(area)
            if seen is None:
                parents[level][area] = above
            elif seen != above:
                raise DataError(
                    f"inconsistent parentage for area {area!r} at level {level}: "
                    f"{seen!r} vs {above!r}"
                )
            above = area
    if g is None:
        raise DataError("empty hierarchy")
    if len(parents[g]) != n_rows:
        raise DataError("duplicate leaf rows in hierarchy")

    areas: List[Tuple[str, ...]] = [(ROOT_AREA,)]
    children: List[Dict[str, Tuple[str, ...]]] = []
    for level in range(1, g + 1):
        level_areas = tuple(sorted(parents[level]))
        areas.append(level_areas)
        grouping: Dict[str, List[str]] = {}
        for area in level_areas:
            grouping.setdefault(parents[level][area], []).append(area)
        children.append({p: tuple(kids) for p, kids in grouping.items()})
    return PartitionHierarchy(areas, children, parents)


class TripTable:
    """Aggregated O/D trip counts over the leaf universe of a hierarchy pair."""

    def __init__(
        self,
        counts: Dict[Key, int],
        origin: PartitionHierarchy,
        dest: PartitionHierarchy,
    ) -> None:
        if origin.levels != dest.levels:
            raise DataError(
                f"origin and destination hierarchies must share depth: "
                f"{origin.levels} vs {dest.levels}"
            )
        self.counts = counts
        self.origin = origin
        self.dest = dest
        self.n = sum(counts.values())

    @property
    def universe_size(self) -> int:
        return len(self.origin.leaves) * len(self.dest.leaves)

    def __len__(self) -> int:
        return len(self.counts)


def ingest_trips(
    rows: Iterable[Sequence[object]],
    origin: PartitionHierarchy,
    dest: PartitionHierarchy,
) -> TripTable:
    """Aggregate raw trip rows (origin, destination[, count]) into a TripTable.

    A missing count column means 1; a count is an int or integer text.
    Duplicate pairs accumulate. Unknown leaf ids and non-integer or
    non-positive counts are rejected, and so (by TripTable) are hierarchies of
    unequal depth.
    """
    o_leaves = set(origin.leaves)
    d_leaves = set(dest.leaves)
    counts: Dict[Key, int] = {}
    for row in rows:
        if len(row) == 2:
            o, d = row
            c = 1
        elif len(row) == 3:
            o, d, c = row
        else:
            raise DataError(f"trip row {row!r} must have 2 or 3 fields")
        o = str(o).strip()
        d = str(d).strip()
        try:
            # an int or integer text; int() would truncate 2.7 and read True as 1
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise TypeError
            c = int(c)
        except (TypeError, ValueError):
            raise DataError(f"trip count {c!r} is not an integer") from None
        if c <= 0:
            raise DataError(f"trip count must be positive, got {c} for ({o!r}, {d!r})")
        if o not in o_leaves:
            raise DataError(f"unknown origin leaf {o!r}")
        if d not in d_leaves:
            raise DataError(f"unknown destination leaf {d!r}")
        key = (o, d)
        counts[key] = counts.get(key, 0) + c
    return TripTable(counts, origin, dest)


class HierTree:
    """Per-depth attribute maps over the interleaved O/D hierarchy.

    ``levels[k]`` maps node keys (origin area, destination area) at depth k to
    integer attributes; absent keys read as zero. Depth runs 0..2g.
    """

    def __init__(
        self,
        mode: str,
        origin: PartitionHierarchy,
        dest: PartitionHierarchy,
        levels: List[Dict[Key, int]],
    ) -> None:
        if mode not in ("destination", "origin"):
            raise DataError(f"mode must be 'destination' or 'origin', got {mode!r}")
        if origin.levels != dest.levels:
            raise DataError("origin and destination hierarchies must share depth")
        self.mode = mode
        self.origin = origin
        self.dest = dest
        self.depth = 2 * origin.levels
        if len(levels) != self.depth + 1:
            raise DataError(f"expected {self.depth + 1} level maps, got {len(levels)}")
        self.levels = levels
        # per parent depth: does it split the destination, and that side's children
        self._splits = [
            (True, dest._children[k // 2]) if (k % 2 == 0) == (mode == "destination")
            else (False, origin._children[k // 2])
            for k in range(self.depth)
        ]

    @property
    def g(self) -> int:
        return self.origin.levels

    @property
    def n(self) -> int:
        """Root attribute (total trips for a tree built from data)."""
        return self.levels[0].get((ROOT_AREA, ROOT_AREA), 0)

    def component_levels(self, depth: int) -> Tuple[int, int]:
        """(origin level, destination level) of keys at tree depth ``depth``."""
        self._check_depth(depth)
        if self.mode == "destination":
            return depth // 2, (depth + 1) // 2
        return (depth + 1) // 2, depth // 2

    def level_map(self, depth: int) -> Dict[Key, int]:
        self._check_depth(depth)
        return self.levels[depth]

    def child_keys(self, key: Key, depth: int) -> Tuple[Key, ...]:
        """Full child universe of a node, from the hierarchies (not the data)."""
        if not 0 <= depth < self.depth:
            self._check_depth(depth)
            raise DataError("leaf nodes have no children")
        split_dest, children = self._splits[depth]
        o, d = key
        try:
            if split_dest:
                return tuple([(o, c) for c in children[d]])
            return tuple([(c, d) for c in children[o]])
        except KeyError as exc:
            raise DataError(f"unknown area {exc.args[0]!r} at level {depth // 2}") from None

    def parent_key(self, key: Key, depth: int) -> Key:
        self._check_depth(depth)
        if depth == 0:
            raise DataError("the root has no parent")
        o, d = key
        ol, dl = self.component_levels(depth)
        # the parent is one un-split step back: undo whichever side depth split
        split_dest = (depth % 2 == 1) == (self.mode == "destination")
        if split_dest:
            return (o, self.dest.parent(dl, d))
        return (self.origin.parent(ol, o), d)

    def range_query(
        self, origin_area: str, origin_level: int, dest_area: str, dest_level: int
    ) -> int:
        """Count of trips from ``origin_area`` into ``dest_area``.

        Supported level combinations are exactly this tree's node shapes:
        intra-level plus the mode's own cross-level direction (destination one
        level finer in destination mode, origin one level finer in origin
        mode). The mirrored tree serves the opposite direction.
        """
        own, other = (
            (dest_level, origin_level) if self.mode == "destination" else (origin_level, dest_level)
        )
        if own - other not in (0, 1):
            raise DataError(
                f"unsupported level pair ({origin_level}, {dest_level}) in {self.mode} mode; "
                f"reconstruct from leaf sums instead"
            )
        depth = own + other
        if depth > self.depth:
            raise DataError(f"level pair ({origin_level}, {dest_level}) beyond the leaves")
        if not self.origin.contains(origin_level, origin_area):
            raise DataError(f"unknown origin area {origin_area!r} at level {origin_level}")
        if not self.dest.contains(dest_level, dest_area):
            raise DataError(f"unknown destination area {dest_area!r} at level {dest_level}")
        return self.levels[depth].get((origin_area, dest_area), 0)

    def _check_depth(self, depth: int) -> None:
        if not 0 <= depth <= self.depth:
            raise DataError(f"depth {depth} outside [0, {self.depth}]")


def _sum_into_parents(
    nodes: Dict[Key, int],
    depth: int,
    origin: PartitionHierarchy,
    dest: PartitionHierarchy,
    mode: str,
) -> Dict[Key, int]:
    """Sum the nodes at ``depth`` (>= 1) into their parents one depth up.

    Going up undoes the one side that ``depth`` split, so each node costs one
    parent lookup on that side. Parents appear in the order of their first
    child; sums that cancel to zero are kept.
    """
    level = (depth + 1) // 2  # the side this depth split is the finer one
    split_dest = (depth % 2 == 1) == (mode == "destination")
    up = (dest if split_dest else origin)._parents[level]
    sums: Dict[Key, int] = {}
    get = sums.get
    try:
        if split_dest:
            for (o, d), value in nodes.items():
                key = (o, up[d])
                sums[key] = get(key, 0) + value
        else:
            for (o, d), value in nodes.items():
                key = (up[o], d)
                sums[key] = get(key, 0) + value
    except KeyError as exc:
        side = "destination" if split_dest else "origin"
        raise DataError(f"unknown {side} area {exc.args[0]!r} at level {level}") from None
    return sums


def aggregate_leaf_map(
    leaf_values: Dict[Key, int],
    origin: PartitionHierarchy,
    dest: PartitionHierarchy,
    mode: str,
) -> List[Dict[Key, int]]:
    """Roll a leaf-level value map up into per-depth maps (depth 0..2g).

    One pass per depth over that depth's nodes, each summed into its parent.
    Values may be negative; aggregates that cancel to exactly zero are dropped
    at the end, matching the sparse read-as-zero convention (dropping them
    while rolling up would reorder the keys above them).
    """
    if mode not in ("destination", "origin"):
        raise DataError(f"mode must be 'destination' or 'origin', got {mode!r}")
    maps = [{key: value for key, value in leaf_values.items() if value != 0}]
    for depth in range(2 * origin.levels, 0, -1):
        maps.append(_sum_into_parents(maps[-1], depth, origin, dest, mode))
    return [{k: v for k, v in m.items() if v != 0} for m in reversed(maps)]


def build_tree(table: TripTable, mode: str = "destination") -> HierTree:
    """Materialize the full true tree of a trip table (nonzero nodes only)."""
    levels = aggregate_leaf_map(table.counts, table.origin, table.dest, mode)
    if not table.counts:
        # still materialize the zero root so the tree has a well-defined total
        levels[0] = {(ROOT_AREA, ROOT_AREA): 0}
    return HierTree(mode, table.origin, table.dest, levels)


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
    for depth in range(tree.depth):
        sums = _sum_into_parents(
            tree.levels[depth + 1], depth + 1, tree.origin, tree.dest, tree.mode
        )
        parent_map = tree.levels[depth]
        for key in set(parent_map) | set(sums):
            if parent_map.get(key, 0) != sums.get(key, 0):
                bad.append((key[0], key[1], depth))
    return sorted(set(bad))
