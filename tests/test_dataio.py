"""On-disk format round trips and rejection of malformed inputs."""

import csv
import io
import json
import pickle
import re

import pytest

from inftda import (
    DataError,
    ingest_trips,
    load_dataset,
    parse_hierarchy,
    read_hierarchy_csv,
    read_release_csv,
    read_trips_csv,
    save_dataset,
    write_hierarchy_csv,
    write_release_csv,
    write_trips_csv,
)
from inftda.cli import main


class TestHierarchyCsv:
    def test_round_trip(self, origin_hier, tmp_path):
        path = str(tmp_path / "h.csv")
        write_hierarchy_csv(origin_hier, path)
        again = read_hierarchy_csv(path)
        assert again.leaves == origin_hier.leaves
        assert again.areas(1) == origin_hier.areas(1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_hierarchy_csv(str(tmp_path / "nope.csv"))


class TestTripsCsv:
    def test_round_trip(self, trip_table, tmp_path):
        path = str(tmp_path / "t.csv")
        write_trips_csv(trip_table, path)
        again = read_trips_csv(path, trip_table.origin, trip_table.dest)
        assert again.counts == trip_table.counts


# a container as an earlier inftda wrote it, for the conftest trip table
OD_DATASET_2 = (
    '{"format":"od-dataset/2","origin_paths":[["N","N.a"],["N","N.b"],["S","S.c"]],'
    '"dest_paths":[["E","E.x"],["E","E.y"],["W","W.z"]],'
    '"trips":[["N.a","E.x",3],["N.a","E.y",1],["N.b","W.z",2],["S.c","E.y",5]]}'
)
REINGEST = "container; one written by an older inftda must be re-ingested from its CSVs"


def _trapped_pickle(marker) -> bytes:
    """A pickle that would create ``marker`` if it were ever unpickled."""

    class Payload:
        def __reduce__(self):
            return (open, (str(marker), "w"))

    return pickle.dumps(Payload())


def _set(*path_and_value):
    """A tamper that sets payload[path...] to the last argument."""
    *path, key, value = path_and_value

    def tamper(payload):
        for step in path:
            payload = payload[step]
        payload[key] = value

    return tamper


def _delete(*path):
    def tamper(payload):
        for step in path[:-1]:
            payload = payload[step]
        del payload[path[-1]]

    return tamper


def _append(*path_and_value):
    *path, value = path_and_value

    def tamper(payload):
        for step in path:
            payload = payload[step]
        payload.append(value)

    return tamper


# One case per check of the od-dataset/3 loader, on the conftest trip table:
# origin areas [["N", "S"], ["N.a", "N.b", "S.c"]] with parents [[0, 0], [0, 0, 1]],
# trips origin [0, 0, 1, 2], dest [0, 1, 2, 1], count [3, 1, 2, 5].
TAMPERS = {
    "format-tag": (_set("format", "od-dataset/2"), "not an od-dataset/3 " + REINGEST),
    "no-origin-block": (_delete("origin"), "no 'origin' block"),
    "no-dest-block": (_delete("dest"), "no 'dest' block"),
    "side-not-an-object": (_set("origin", [["N", "S"]]), "no 'origin' block"),
    "no-trips-block": (_delete("trips"), "no 'trips' block"),
    "trips-not-an-object": (_set("trips", [[0, 0, 3]]), "no 'trips' block"),
    "no-levels": (_set("origin", "areas", []), "one 'areas' and one 'parents' list per level"),
    "levels-unmatched": (_delete("dest", "parents", 1), "one 'areas' and one 'parents' list"),
    "level-empty": (_set("origin", "areas", 0, []), "level 1 is not a non-empty list"),
    "level-not-a-list": (_set("dest", "areas", 1, "E.x"), "level 2 is not a non-empty list"),
    "id-not-a-string": (_set("origin", "areas", 1, 2, 7), "not a string, is blank"),
    "id-empty": (_set("origin", "areas", 0, 0, ""), "not a string, is blank"),
    "id-blank": (_set("origin", "areas", 0, 0, "  "), "not a string, is blank"),
    "id-leading-space": (_set("dest", "areas", 1, 0, " E.x"), "surrounding whitespace"),
    "id-trailing-space": (_set("dest", "areas", 1, 2, "W.z "), "surrounding whitespace"),
    "ids-descending": (_set("origin", "areas", 0, ["S", "N"]), "not strictly ascending"),
    "id-repeated": (_set("dest", "areas", 1, 1, "E.x"), "not strictly ascending"),
    "parent-bool": (_set("origin", "parents", 1, 0, False), "'parents' is not one index"),
    "parent-float": (_set("origin", "parents", 1, 2, 1.0), "'parents' is not one index"),
    "parent-too-large": (_set("origin", "parents", 1, 2, 2), "'parents' is not one index"),
    "parent-negative": (_set("dest", "parents", 1, 0, -1), "'parents' is not one index"),
    "parents-too-long": (_append("origin", "parents", 1, 1), "'parents' is not one index"),
    "parents-too-short": (_delete("dest", "parents", 0, 1), "'parents' is not one index"),
    "parents-not-a-list": (_set("dest", "parents", 0, 0), "'parents' is not one index"),
    "childless-area": (_set("origin", "parents", 1, [0, 0, 0]), "level 1 has no child"),
    "trip-columns-unequal": (_delete("trips", "count", 3), "lists of equal length"),
    "trip-column-missing": (_delete("trips", "dest"), "lists of equal length"),
    "origin-leaf-out-of-range": (_set("trips", "origin", 3, 3), "not an origin leaf index"),
    "dest-leaf-negative": (_set("trips", "dest", 0, -1), "not a destination leaf index"),
    "leaf-index-bool": (_set("trips", "origin", 0, False), "not an origin leaf index"),
    "count-0": (_set("trips", "count", 0, 0), "not a positive integer"),
    "count-negative": (_set("trips", "count", 1, -1), "not a positive integer"),
    "count-true": (_set("trips", "count", 2, True), "not a positive integer"),
    "count-float": (_set("trips", "count", 3, 1.5), "not a positive integer"),
    "count-string": (_set("trips", "count", 0, "3"), "not a positive integer"),
    "pair-twice": (_set("trips", "dest", 1, 0), "pair is given twice"),
}


class TestDatasetContainer:
    def test_round_trip(self, trip_table, tmp_path):
        path = str(tmp_path / "data.bin")
        save_dataset(trip_table, path)
        again = load_dataset(path)
        assert list(again.counts.items()) == list(trip_table.counts.items())
        assert again.n == trip_table.n
        for side in ("origin", "dest"):
            want, got = getattr(trip_table, side), getattr(again, side)
            assert got._areas == want._areas
            assert got._parents == want._parents
            assert got._children == want._children

    def test_round_trip_sorts_the_counts_and_keeps_unordered_parents(self, tmp_path):
        # level 2's sorted areas ("a", "b", "c") have parents out of order
        origin = parse_hierarchy([("B", "a"), ("A", "b"), ("B", "c")])
        dest = parse_hierarchy([("Y", "x"), ("X", "y")])
        table = ingest_trips([("c", "y", 2), ("a", "y", 1), ("b", "x", 4), ("a", "x", 3)],
                             origin, dest)
        path = str(tmp_path / "data.bin")
        save_dataset(table, path)
        payload = json.loads((tmp_path / "data.bin").read_text())
        assert payload == {
            "format": "od-dataset/3",
            "origin": {"areas": [["A", "B"], ["a", "b", "c"]], "parents": [[0, 0], [1, 0, 1]]},
            "dest": {"areas": [["X", "Y"], ["x", "y"]], "parents": [[0, 0], [1, 0]]},
            "trips": {"origin": [0, 0, 1, 2], "dest": [0, 1, 0, 1], "count": [3, 1, 4, 2]},
        }
        again = load_dataset(path)
        assert list(again.counts.items()) == sorted(table.counts.items())
        assert again.origin._parents == origin._parents
        assert again.origin._children == origin._children

    def test_each_area_is_named_once(self, trip_table, tmp_path):
        path = tmp_path / "data.bin"
        save_dataset(trip_table, str(path))
        payload = json.loads(path.read_text())
        assert payload["origin"] == {"areas": [["N", "S"], ["N.a", "N.b", "S.c"]],
                                     "parents": [[0, 0], [0, 0, 1]]}
        assert payload["trips"] == {"origin": [0, 0, 1, 2], "dest": [0, 1, 2, 1],
                                    "count": [3, 1, 2, 5]}

    def test_rejects_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError, match="container"):
            load_dataset(str(path))

    def test_rejects_garbage_bytes(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(DataError):
            load_dataset(str(path))

    def test_pickle_is_rejected_without_running_it(self, tmp_path):
        marker = tmp_path / "marker"
        path = tmp_path / "old.bin"
        path.write_bytes(_trapped_pickle(marker))
        with pytest.raises(DataError, match="not an od-dataset/3 " + REINGEST):
            load_dataset(str(path))
        assert not marker.exists()

    @pytest.mark.parametrize("old", ["od-dataset/2", "pickle"])
    def test_older_container_is_3_through_release(self, tmp_path, capsys, old):
        marker = tmp_path / "marker"
        path = tmp_path / "old.bin"
        if old == "pickle":
            path.write_bytes(_trapped_pickle(marker))
        else:
            path.write_text(OD_DATASET_2)
        capsys.readouterr()
        assert main(["release", "--data", str(path), "--mechanism", "sh", "--epsilon", "1",
                     "--delta", "1e-8", "--out", str(tmp_path / "rel.csv")]) == 3
        assert f"{path} is not an od-dataset/3 {REINGEST}" in capsys.readouterr().err
        assert not marker.exists() and not (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_every_field_is_checked_on_load(self, trip_table, tmp_path, case):
        tamper, message = TAMPERS[case]
        path = tmp_path / "tampered.bin"
        save_dataset(trip_table, str(path))
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset(str(path))


class TestReleaseCsv:
    def test_round_trip_with_negatives_and_zero_root(self, tmp_path):
        levels = {
            0: {("__all__", "__all__"): 0},
            2: {("N", "E"): 5, ("S", "W"): -3},
        }
        path = str(tmp_path / "rel.csv")
        write_release_csv(levels, path)
        again = read_release_csv(path)
        assert again == levels  # the zero root row is written explicitly

    def test_zero_values_below_root_are_dropped(self, tmp_path):
        path = str(tmp_path / "rel.csv")
        write_release_csv({0: {("__all__", "__all__"): 4}, 2: {("N", "E"): 0}}, path)
        again = read_release_csv(path)
        assert 2 not in again

    def test_header_required(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(DataError, match="header"):
            read_release_csv(str(path))

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("depth,origin,destination,flow\n1,a,b,notanint\n")
        with pytest.raises(DataError, match="malformed"):
            read_release_csv(str(path))
        path.write_text("depth,origin,destination,flow\n1,a,b\n")
        with pytest.raises(DataError, match="malformed"):
            read_release_csv(str(path))

    @pytest.mark.parametrize("depth, flow", [
        ("2_6", "1"), ("+2", "1"), (" 2", "1"), ("2 ", "1"), ("\u0662", "1"), ("-1", "1"),
        ("", "1"), ("1", "2_6"), ("1", "+26"), ("1", " 26"), ("1", "26 "),
        ("1", "\u0662\u0666"), ("1", "-\u0662"), ("1", "--3"), ("1", "-"), ("1", "1.0"),
        ("1", "\u00b2"), ("1", ""),
    ])
    def test_only_ascii_digits_parse(self, tmp_path, depth, flow):
        # int() takes every one of these
        path = tmp_path / "rel.csv"
        path.write_text(f"depth,origin,destination,flow\n{depth},a,b,{flow}\n", encoding="utf-8")
        with pytest.raises(DataError, match="malformed"):
            read_release_csv(str(path))

    def test_signed_and_zero_padded_digits_parse(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("depth,origin,destination,flow\n1,a,b,-26\n02,a,c,007\n3,a,d,-0\n")
        assert read_release_csv(str(path)) == {1: {("a", "b"): -26}, 2: {("a", "c"): 7},
                                              3: {("a", "d"): 0}}

    def test_quoting_survives_commas_in_ids(self, tmp_path):
        levels = {0: {("a,b", "c\"d"): 7}}
        path = str(tmp_path / "rel.csv")
        write_release_csv(levels, path)
        assert read_release_csv(path) == levels

    def test_bytes_are_those_csv_writer_writes(self, tmp_path):
        # ids with a comma, a double quote, line breaks, spaces csv leaves
        # bare, and an empty id, which a lone field would write as ""
        levels = {
            0: {("__all__", "__all__"): 9},
            1: {("a,b", 'c"d'): 4, ("e\nf", " g "): 0, ("h\r\ni", "a,b"): -2},
            2: {("a,b", "e\nf"): 5, ('"', ","): 3, ("a,b", 'c"d'): 1, ("", " g "): 6},
        }
        path = tmp_path / "rel.csv"
        write_release_csv(levels, str(path))
        assert path.read_bytes() == (
            b'depth,origin,destination,flow\r\n'
            b'0,__all__,__all__,9\r\n'
            b'1,"a,b","c""d",4\r\n'
            b'1,"h\r\ni","a,b",-2\r\n'
            b'2,, g ,6\r\n'
            b'2,"""",",",3\r\n'
            b'2,"a,b","c""d",1\r\n'
            b'2,"a,b","e\nf",5\r\n'
        )
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["depth", "origin", "destination", "flow"])
        for depth in sorted(levels):
            writer.writerows([depth, o, d, v] for (o, d), v in sorted(levels[depth].items())
                             if v != 0 or depth == 0)
        assert path.read_bytes() == expected.getvalue().encode()
        levels[1].pop(("e\nf", " g "))
        assert read_release_csv(str(path)) == levels
