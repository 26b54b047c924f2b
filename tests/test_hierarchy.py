"""Hierarchy parsing, trip ingestion, tree structure, and range queries."""

from itertools import product

import pytest
from rollup_oracle import aggregate_leaf_map as oracle_aggregate
from rollup_oracle import parent_key

from inftda import (
    ROOT_AREA,
    DataError,
    HierTree,
    TripTable,
    aggregate_leaf_map,
    build_tree,
    ingest_trips,
    parse_hierarchy,
    validate_consistency,
)


def _grid(b, g):
    """Leaf paths of a g-level hierarchy whose every area splits b ways."""
    return [tuple("".join(map(str, path[:i + 1])) for i in range(g))
            for path in product(range(b), repeat=g)]


class TestParseHierarchy:
    def test_structure(self, origin_hier, dest_hier):
        h = origin_hier
        assert h.levels == 2
        assert h.areas(0) == (ROOT_AREA,)
        assert h.areas(1) == ("N", "S")
        assert h.leaves == ("N.a", "N.b", "S.c")
        # in origin mode depths 1 and 3 split the origin, in sorted order
        tree = HierTree("origin", h, dest_hier, [{} for _ in range(5)])
        assert tree.child_keys([(ROOT_AREA, ROOT_AREA)], 0) == (
            [("N", ROOT_AREA), ("S", ROOT_AREA)], [2])
        assert tree.child_keys([("N", "E"), ("S", "W")], 2) == (
            [("N.a", "E"), ("N.b", "E"), ("S.c", "W")], [2, 1])
        assert tree.child_keys([], 2) == ([], [])
        assert h.path("N.a") == (ROOT_AREA, "N", "N.a")
        assert h.path("N.b") == (ROOT_AREA, "N", "N.b")
        assert [leaf for leaf in h.leaves if h.path(leaf)[1] == "N"] == ["N.a", "N.b"]
        assert all(h.path(leaf)[0] == ROOT_AREA for leaf in h.leaves)
        assert h.contains(1, "S") and not h.contains(1, "S.c")

    def test_rejects_empty_input(self):
        with pytest.raises(DataError, match="empty hierarchy"):
            parse_hierarchy([])

    def test_rejects_ragged_rows(self):
        with pytest.raises(DataError, match="ragged"):
            parse_hierarchy([("A", "A.1"), ("B",)])

    def test_rejects_empty_field(self):
        with pytest.raises(DataError, match="empty area id"):
            parse_hierarchy([("A", ""), ("B", "B.1")])

    def test_rejects_inconsistent_parentage(self):
        with pytest.raises(DataError, match="inconsistent parentage"):
            parse_hierarchy([("A", "x"), ("B", "x")])

    def test_rejects_duplicate_leaf(self):
        with pytest.raises(DataError, match="duplicate leaf"):
            parse_hierarchy([("A", "A.1"), ("A", "A.1")])

    def test_unknown_lookups_raise(self, origin_hier, dest_hier):
        tree = HierTree("origin", origin_hier, dest_hier, [{} for _ in range(5)])
        with pytest.raises(DataError, match="unknown area 'Z' at level 1"):
            tree.child_keys([("N", "E"), ("Z", "E")], 2)
        with pytest.raises(DataError, match="the root has no parent"):
            parent_key(tree, (ROOT_AREA, ROOT_AREA), 0)
        with pytest.raises(DataError):
            origin_hier.path("Z")
        with pytest.raises(DataError):
            origin_hier.areas(3)


class TestIngestTrips:
    def test_counts_and_aggregation(self, origin_hier, dest_hier):
        rows = [("N.a", "E.x"), ("N.a", "E.x", 2), ("S.c", "W.z", 1)]
        table = ingest_trips(rows, origin_hier, dest_hier)
        assert table.counts == {("N.a", "E.x"): 3, ("S.c", "W.z"): 1}
        assert table.n == 4
        assert table.universe_size == 9
        assert len(table) == 2

    @pytest.mark.parametrize(
        "row",
        [("Z", "E.x", 1), ("N.a", "Z", 1), ("N.a", "E.x", 0), ("N.a", "E.x", "many"),
         ("N.a", "E.x", 1, 9), ("N.a", "E.x", 2.7), ("N.a", "E.x", 2.0), ("N.a", "E.x", True)],
    )
    def test_bad_rows_rejected(self, origin_hier, dest_hier, row):
        with pytest.raises(DataError):
            ingest_trips([row], origin_hier, dest_hier)

    def test_unequal_depths_rejected(self, origin_hier):
        shallow = parse_hierarchy([("E",), ("W",)])
        with pytest.raises(DataError, match="share depth"):
            ingest_trips([], origin_hier, shallow)
        with pytest.raises(DataError, match="share depth"):
            TripTable({}, origin_hier, shallow)


def brute_range_count(table, origin_area, origin_level, dest_area, dest_level):
    """Independent oracle: sum raw counts over the two leaf subtrees."""
    origin, dest = table.origin, table.dest
    o_leaves = {o for o in origin.leaves if origin.path(o)[origin_level] == origin_area}
    d_leaves = {d for d in dest.leaves if dest.path(d)[dest_level] == dest_area}
    return sum(
        c for (o, d), c in table.counts.items() if o in o_leaves and d in d_leaves
    )


class TestHierTree:
    def test_depth_and_root(self, trip_table):
        tree = build_tree(trip_table)
        assert tree.depth == 4
        assert tree.origin.levels == 2
        assert tree.n == trip_table.n == 11
        assert tree.mode == "destination"

    def test_component_levels_both_modes(self, trip_table):
        dest_tree = build_tree(trip_table, "destination")
        orig_tree = build_tree(trip_table, "origin")
        assert [dest_tree.component_levels(d) for d in range(5)] == [
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2),
        ]
        assert [orig_tree.component_levels(d) for d in range(5)] == [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
        ]

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_true_tree_is_consistent(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        assert validate_consistency(tree) == []
        leaf_map = tree.levels[tree.depth]
        assert leaf_map == trip_table.counts

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_child_parent_round_trip(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        for depth in range(1, tree.depth + 1):
            for key in tree.levels[depth]:
                parent = parent_key(tree, key, depth)
                assert key in tree.child_keys([parent], depth - 1)[0]

    def test_child_keys_cover_full_universe(self, trip_table):
        tree = build_tree(trip_table, "destination")
        # depth 0 splits destination at level 1: both E and W appear even
        # though W only carries 2 of the 11 trips
        kids, sizes = tree.child_keys([(ROOT_AREA, ROOT_AREA)], 0)
        assert (kids, sizes) == ([(ROOT_AREA, "E"), (ROOT_AREA, "W")], [2])
        with pytest.raises(DataError):
            tree.child_keys(kids[:1], tree.depth)
        with pytest.raises(DataError):
            parent_key(tree, (ROOT_AREA, ROOT_AREA), 0)

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_child_keys_errors(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        root = [(ROOT_AREA, ROOT_AREA)]
        with pytest.raises(DataError, match=r"depth -1 outside \[0, 4\]"):
            tree.child_keys(root, -1)  # never wraps round to the deepest split
        with pytest.raises(DataError, match="leaf nodes have no children"):
            tree.child_keys(root, tree.depth)
        with pytest.raises(DataError, match=r"depth 5 outside \[0, 4\]"):
            tree.child_keys(root, tree.depth + 1)
        with pytest.raises(DataError, match="unknown area 'nowhere' at level 1"):
            tree.child_keys([("nowhere", "nowhere")], 2)

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_range_query_matches_brute_force(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        g = trip_table.origin.levels
        for ol in range(g + 1):
            for dl in range(g + 1):
                supported = (
                    dl in (ol, ol + 1) if mode == "destination" else ol in (dl, dl + 1)
                )
                for oa in trip_table.origin.areas(ol):
                    for da in trip_table.dest.areas(dl):
                        if supported:
                            got = tree.range_query(oa, ol, da, dl)
                            want = brute_range_count(trip_table, oa, ol, da, dl)
                            assert got == want, (oa, ol, da, dl)
                        else:
                            with pytest.raises(DataError, match="unsupported"):
                                tree.range_query(oa, ol, da, dl)

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_range_query_beyond_the_leaves_is_unsupported(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        # one level past the leaves on the side this mode refines first
        beyond = (2, 3) if mode == "destination" else (3, 2)
        for ol, dl in (beyond, (3, 3)):
            with pytest.raises(DataError, match=r"unsupported level pair \(\d, \d\)"):
                tree.range_query("N.a", ol, "E.x", dl)

    def test_range_query_unknown_area(self, trip_table):
        tree = build_tree(trip_table)
        with pytest.raises(DataError, match="unknown origin"):
            tree.range_query("Z", 1, "E", 1)
        with pytest.raises(DataError, match="unknown destination"):
            tree.range_query("N", 1, "Z", 1)

    def test_range_query_absent_pair_is_zero(self, trip_table):
        tree = build_tree(trip_table)
        # S has no trips into W
        assert tree.range_query("S", 1, "W", 1) == 0

    def test_constructor_validation(self, origin_hier, dest_hier):
        with pytest.raises(DataError, match="mode"):
            HierTree("sideways", origin_hier, dest_hier, [{} for _ in range(5)])
        with pytest.raises(DataError, match="level maps"):
            HierTree("destination", origin_hier, dest_hier, [{}])

    @pytest.mark.parametrize(
        "origin_rows, dest_rows",
        [
            (_grid(2, 2), _grid(2, 2)),
            (_grid(3, 1), _grid(3, 1)),
            (_grid(2, 2), _grid(3, 2)),
            ([("N", "N.a"), ("N", "N.b"), ("S", "S.c")], _grid(2, 2)),
            ([("N", "N.a"), ("N", "N.b"), ("N", "N.c"), ("S", "S.a"), ("S", "S.b"),
              ("S", "S.c")], [("E", "E.a"), ("E", "E.b"), ("E", "E.c"), ("W", "W.a"),
                              ("W", "W.b"), ("W", "W.c")]),
            ([("N", "N.a")], [("E", "E.a")]),
        ],
        ids=["binary", "ternary", "sides-differ", "one-area-differs", "levels-differ",
             "one-child"],
    )
    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_full_expansion_visits_each_component_level_pair_once(
        self, origin_rows, dest_rows, mode
    ):
        # the error envelope counts its noise coordinates as the area products
        # at component_levels; expanding every node must reach exactly those keys
        origin, dest = parse_hierarchy(origin_rows), parse_hierarchy(dest_rows)
        tree = HierTree(mode, origin, dest, [{} for _ in range(2 * origin.levels + 1)])
        keys = [(ROOT_AREA, ROOT_AREA)]
        for depth in range(1, tree.depth + 1):
            keys, sizes = tree.child_keys(keys, depth - 1)
            assert sum(sizes) == len(keys)
            o, d = tree.component_levels(depth)
            assert sorted(keys) == sorted(product(origin.areas(o), dest.areas(d)))

    def test_empty_table_builds_zero_root(self, origin_hier, dest_hier):
        table = ingest_trips([], origin_hier, dest_hier)
        tree = build_tree(table)
        assert tree.n == 0
        assert tree.levels[0] == {(ROOT_AREA, ROOT_AREA): 0}
        assert all(tree.levels[d] == {} for d in range(1, 5))
        assert validate_consistency(tree) == []


class TestAggregation:
    def test_zero_values_dropped(self, origin_hier, dest_hier):
        maps = aggregate_leaf_map(
            {("N.a", "E.x"): 2, ("N.b", "E.x"): -2, ("S.c", "W.z"): 0},
            origin_hier,
            dest_hier,
            "destination",
        )
        # the two N leaves survive at the bottom but cancel everywhere above
        assert maps[4] == {("N.a", "E.x"): 2, ("N.b", "E.x"): -2}
        for depth in range(4):
            assert maps[depth] == {}

    def test_bad_mode_rejected(self, origin_hier, dest_hier):
        with pytest.raises(DataError, match="mode"):
            aggregate_leaf_map({}, origin_hier, dest_hier, "both")

    def test_unequal_depths_rejected(self, origin_hier):
        shallow = parse_hierarchy([("E",), ("W",)])
        with pytest.raises(DataError, match="share depth"):
            aggregate_leaf_map({}, origin_hier, shallow, "destination")

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    @pytest.mark.parametrize(
        "key",
        [("Z", "E.x"), ("N.a", "Z"), ("N", "E.x"), ("N.a", "E")],
        ids=["origin", "destination", "origin-inner-area", "destination-inner-area"],
    )
    def test_unknown_leaf_rejected(self, origin_hier, dest_hier, mode, key):
        # inner areas are known ids, but not at the leaf level
        leaves = {("N.a", "E.y"): 1, key: 2, ("S.c", "W.z"): 3}
        with pytest.raises(DataError, match="unknown"):
            aggregate_leaf_map(leaves, origin_hier, dest_hier, mode)


class TestValidateConsistency:
    def test_detects_broken_sum(self, trip_table):
        tree = build_tree(trip_table)
        levels = [dict(m) for m in tree.levels]
        key = next(iter(levels[4]))
        levels[4][key] += 1
        broken = HierTree("destination", trip_table.origin, trip_table.dest, levels)
        bad = validate_consistency(broken)
        parent = parent_key(broken, key, 4)
        assert (parent[0], parent[1], 3) in bad
        assert bad == [("N", "E.x", 3)]

    def test_detects_negative_value(self, trip_table):
        tree = build_tree(trip_table)
        levels = [dict(m) for m in tree.levels]
        levels[4][("N.b", "E.x")] = -1
        broken = HierTree("destination", trip_table.origin, trip_table.dest, levels)
        bad = validate_consistency(broken)
        assert ("N.b", "E.x", 4) in bad
        assert bad == [("N", "E.x", 3), ("N.b", "E.x", 4)]

    def test_detects_orphan(self, trip_table):
        tree = build_tree(trip_table)
        levels = [dict(m) for m in tree.levels]
        # positive child under a parent the release never emitted
        levels[4][("N.b", "E.x")] = 7
        broken = HierTree("destination", trip_table.origin, trip_table.dest, levels)
        bad = validate_consistency(broken)
        assert any(depth == 3 for (_, _, depth) in bad)
        assert bad == [("N", "E.x", 3)]


class TestRollupCopies:
    """The roll-up copies the leaf map once and deletes zeros in place; the
    caller's map is never changed or returned, and every level keeps the
    values and key order of ``tests/rollup_oracle.py``."""

    def test_callers_map_left_alone(self):
        origin = dest = parse_hierarchy([("0", "00"), ("0", "01"), ("1", "10")])
        leaf_values = {("00", "10"): 0, ("01", "00"): 3, ("00", "00"): -3, ("10", "01"): 0}
        before = list(leaf_values.items())
        for mode in ("destination", "origin"):
            got = aggregate_leaf_map(leaf_values, origin, dest, mode)
            assert list(leaf_values.items()) == before
            assert all(level is not leaf_values for level in got)
            assert got[-1] == {("01", "00"): 3, ("00", "00"): -3}

    def test_build_tree_copies_the_leaf_counts(self, trip_table):
        tree = build_tree(trip_table)
        assert tree.levels[-1] is not trip_table.counts
        assert tree.levels[-1] == trip_table.counts

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_zeros_and_cancelling_sums_keep_the_oracle_order(self, mode):
        # 3 levels, fan-out 2 on both sides; in destination mode the first two
        # nonzero leaves cancel from depth 5 up, the next two from depth 4, the
        # next two from depth 3; a zero leaf comes first, a positive one last
        origin = dest = parse_hierarchy(_grid(2, 3))
        leaf_values = {
            ("111", "011"): 0,
            ("000", "000"): 2, ("001", "000"): -2,
            ("010", "100"): 3, ("011", "101"): -3,
            ("100", "110"): 4, ("110", "111"): -4,
            ("101", "010"): 5,
        }
        got = aggregate_leaf_map(leaf_values, origin, dest, mode)
        want = oracle_aggregate(leaf_values, origin, dest, mode)
        assert [list(level.items()) for level in got] == [list(level.items()) for level in want]
        assert got[0] == {(ROOT_AREA, ROOT_AREA): 5}
        if mode == "destination":
            assert ("00", "000") not in got[5] and ("01", "10") not in got[4]
            assert ("1", "11") not in got[3]
            assert [len(level) for level in got] == [1, 1, 1, 1, 3, 5, 7]
