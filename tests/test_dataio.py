"""On-disk format round trips and rejection of malformed inputs."""

import json
import pickle

import pytest

from inftda import (
    DataError,
    load_dataset,
    read_hierarchy_csv,
    read_release_csv,
    read_trips_csv,
    save_dataset,
    write_hierarchy_csv,
    write_release_csv,
    write_trips_csv,
)


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


class TestDatasetContainer:
    def test_round_trip(self, trip_table, tmp_path):
        path = str(tmp_path / "data.bin")
        save_dataset(trip_table, path)
        again = load_dataset(path)
        assert again.counts == trip_table.counts
        assert again.n == trip_table.n
        assert again.origin.leaves == trip_table.origin.leaves

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

        class Payload:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        path = tmp_path / "old.bin"
        path.write_bytes(pickle.dumps(Payload()))
        with pytest.raises(DataError, match="not an od-dataset/2 container; one written by "
                           "an older inftda must be re-ingested from its CSVs"):
            load_dataset(str(path))
        assert not marker.exists()

    def test_validation_reruns_on_load(self, trip_table, tmp_path):
        # tamper with the stored trips: unknown leaf must be rejected on load
        path = tmp_path / "tampered.bin"
        save_dataset(trip_table, str(path))
        payload = json.loads(path.read_text())
        payload["trips"].append(["ghost", "E.x", 1])
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="unknown origin leaf"):
            load_dataset(str(path))


    @pytest.mark.parametrize(
        "field, value",
        [("dest_paths", None), ("origin_paths", 5), ("trips", [5]),
         ("trips", [("N.a", "E.x", float("inf"))])],
        ids=["missing-dest-paths", "origin-paths-number", "trip-row-number", "trip-count-inf"],
    )
    def test_malformed_fields_are_data_errors(self, trip_table, tmp_path, field, value):
        path = tmp_path / "malformed.bin"
        save_dataset(trip_table, str(path))
        payload = json.loads(path.read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
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
