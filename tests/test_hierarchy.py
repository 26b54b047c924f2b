"""Hierarchy parsing, trip ingestion, tree structure, and range queries."""

import pytest

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


class TestParseHierarchy:
    def test_structure(self, origin_hier):
        h = origin_hier
        assert h.levels == 2
        assert h.areas(0) == (ROOT_AREA,)
        assert h.areas(1) == ("N", "S")
        assert h.leaves == ("N.a", "N.b", "S.c")
        assert h.children(0, ROOT_AREA) == ("N", "S")
        assert h.children(1, "N") == ("N.a", "N.b")
        assert h.parent(2, "N.a") == "N"
        assert h.path("N.b") == (ROOT_AREA, "N", "N.b")
        assert h.subtree_leaves(1, "N") == ("N.a", "N.b")
        assert h.subtree_leaves(0, ROOT_AREA) == h.leaves
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

    def test_unknown_lookups_raise(self, origin_hier):
        with pytest.raises(DataError):
            origin_hier.children(1, "Z")
        with pytest.raises(DataError):
            origin_hier.parent(0, ROOT_AREA)
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
    o_leaves = set(table.origin.subtree_leaves(origin_level, origin_area))
    d_leaves = set(table.dest.subtree_leaves(dest_level, dest_area))
    return sum(
        c for (o, d), c in table.counts.items() if o in o_leaves and d in d_leaves
    )


class TestHierTree:
    def test_depth_and_root(self, trip_table):
        tree = build_tree(trip_table)
        assert tree.depth == 4
        assert tree.g == 2
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
        leaf_map = tree.level_map(tree.depth)
        assert leaf_map == trip_table.counts

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_child_parent_round_trip(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        for depth in range(1, tree.depth + 1):
            for key in tree.level_map(depth):
                parent = tree.parent_key(key, depth)
                assert key in tree.child_keys(parent, depth - 1)

    def test_child_keys_cover_full_universe(self, trip_table):
        tree = build_tree(trip_table, "destination")
        # depth 0 splits destination at level 1: both E and W appear even
        # though W only carries 2 of the 11 trips
        kids = tree.child_keys((ROOT_AREA, ROOT_AREA), 0)
        assert kids == ((ROOT_AREA, "E"), (ROOT_AREA, "W"))
        with pytest.raises(DataError):
            tree.child_keys(kids[0], tree.depth)
        with pytest.raises(DataError):
            tree.parent_key((ROOT_AREA, ROOT_AREA), 0)

    @pytest.mark.parametrize("mode", ["destination", "origin"])
    def test_child_keys_errors(self, trip_table, mode):
        tree = build_tree(trip_table, mode)
        root = (ROOT_AREA, ROOT_AREA)
        with pytest.raises(DataError, match=r"depth -1 outside \[0, 4\]"):
            tree.child_keys(root, -1)  # never wraps round to the deepest split
        with pytest.raises(DataError, match="leaf nodes have no children"):
            tree.child_keys(root, tree.depth)
        with pytest.raises(DataError, match=r"depth 5 outside \[0, 4\]"):
            tree.child_keys(root, tree.depth + 1)
        with pytest.raises(DataError, match="unknown area 'nowhere' at level 1"):
            tree.child_keys(("nowhere", "nowhere"), 2)

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

    def test_empty_table_builds_zero_root(self, origin_hier, dest_hier):
        table = ingest_trips([], origin_hier, dest_hier)
        tree = build_tree(table)
        assert tree.n == 0
        assert tree.level_map(0) == {(ROOT_AREA, ROOT_AREA): 0}
        assert all(tree.level_map(d) == {} for d in range(1, 5))
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
        parent = broken.parent_key(key, 4)
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
