"""On-disk formats: hierarchy and trip CSVs, the ingested dataset container,
released tables, and JSON files.

Hierarchy CSV: one row per leaf, g columns root-side first, no header.
Trips CSV: origin,destination[,count]; a missing count means 1; no header.
Dataset container: one compact JSON object (format tag, leaf paths,
aggregated trips); load rebuilds through the normal constructors so every
validation rule re-runs, and reading it never runs code.
Release CSV: header depth,origin,destination,flow; tree mechanisms store all
depths, leaf mechanisms only the leaf depth. Zero values are omitted (they
read back as absent, which evaluates as zero); a node given twice is a
DataError.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError, DataError
from .hierarchy import Key, PartitionHierarchy, TripTable, ingest_trips, parse_hierarchy

__all__ = [
    "read_hierarchy_csv",
    "write_hierarchy_csv",
    "read_trips_csv",
    "write_trips_csv",
    "save_dataset",
    "load_dataset",
    "write_release_csv",
    "read_release_csv",
    "sidecar_path",
    "open_output",
    "make_output_dir",
    "read_json",
    "write_json",
]

DATASET_FORMAT = "od-dataset/2"


def _read_rows(path: str) -> List[List[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


@contextmanager
def open_output(path: str):
    """Open ``path`` to write text; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def make_output_dir(path: str) -> None:
    """Create directory ``path`` and its parents if missing; a path that cannot
    be made a directory (say, an existing file) is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def read_json(path: str):
    """The JSON value in ``path``. A file that cannot be read, or is not JSON
    (nesting too deep for the parser included), is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def write_json(payload, path: str) -> None:
    """``payload`` as indented JSON plus a final newline."""
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_hierarchy_csv(path: str) -> PartitionHierarchy:
    return parse_hierarchy(_read_rows(path))


def write_hierarchy_csv(hier: PartitionHierarchy, path: str) -> None:
    with open_output(path) as fh:
        writer = csv.writer(fh)
        for leaf in hier.leaves:
            writer.writerow(hier.path(leaf)[1:])


def read_trips_csv(path: str, origin: PartitionHierarchy, dest: PartitionHierarchy) -> TripTable:
    return ingest_trips(_read_rows(path), origin, dest)


def write_trips_csv(table: TripTable, path: str) -> None:
    with open_output(path) as fh:
        writer = csv.writer(fh)
        for (o, d) in sorted(table.counts):
            writer.writerow([o, d, table.counts[(o, d)]])


def save_dataset(table: TripTable, path: str) -> None:
    payload = {
        "format": DATASET_FORMAT,
        "origin_paths": [table.origin.path(leaf)[1:] for leaf in table.origin.leaves],
        "dest_paths": [table.dest.path(leaf)[1:] for leaf in table.dest.leaves],
        "trips": sorted((o, d, c) for (o, d), c in table.counts.items()),
    }
    with open_output(path) as fh:
        # built above from strings and ints, so there is no cycle to look for
        fh.write(json.dumps(payload, separators=(",", ":"), check_circular=False))


def load_dataset(path: str) -> TripTable:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError):  # not UTF-8 JSON, like the older pickles
        payload = None
    if not isinstance(payload, dict) or payload.get("format") != DATASET_FORMAT:
        raise DataError(f"{path} is not an {DATASET_FORMAT} container; one written by "
                        f"an older inftda must be re-ingested from its CSVs")
    for name in ("origin_paths", "dest_paths", "trips"):
        rows = payload.get(name)
        if not isinstance(rows, list) or not all(isinstance(r, (list, tuple)) for r in rows):
            raise DataError(f"{path}: {name!r} in the container is not a list of rows")
    origin = parse_hierarchy(payload["origin_paths"])
    dest = parse_hierarchy(payload["dest_paths"])
    return ingest_trips(payload["trips"], origin, dest)


def write_release_csv(levels: Dict[int, Dict[Key, int]], path: str) -> None:
    """Persist released values; ``levels`` maps depth -> {(o, d): value}."""
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "origin", "destination", "flow"])
        for depth in sorted(levels):
            level = levels[depth]
            for (o, d) in sorted(level):
                value = level[(o, d)]
                if value != 0 or depth == 0:
                    writer.writerow([depth, o, d, value])


def sidecar_path(csv_path: str, suffix: str) -> str:
    """The file next to ``csv_path`` named by ``suffix`` (e.g. ".meta.json")."""
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + suffix


def read_release_csv(path: str) -> Dict[int, Dict[Key, int]]:
    rows = _read_rows(path)
    if not rows or rows[0] != ["depth", "origin", "destination", "flow"]:
        raise DataError(f"{path} lacks the depth,origin,destination,flow header")
    levels: Dict[int, Dict[Key, int]] = {}
    for row in rows[1:]:
        if len(row) != 4:
            raise DataError(f"malformed release row {row!r}")
        # ASCII digits only, as the writer writes them: int() would also take
        # "2_6", "+26", " 26 " and other scripts' digits
        depth, value = row[0], row[3]
        if not (depth.isdigit() and depth.isascii() and value.isascii()
                and (value.isdigit() or value[:1] == "-" and value[1:].isdigit())):
            raise DataError(f"malformed release row {row!r}")
        depth, value = int(depth), int(value)
        level = levels.setdefault(depth, {})
        if (row[1], row[2]) in level:
            raise DataError(f"duplicate release row {row!r}")
        level[(row[1], row[2])] = value
    return levels
