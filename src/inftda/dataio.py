"""On-disk formats: hierarchy and trip CSVs, the ingested dataset container,
and released tables.

Hierarchy CSV: one row per leaf, g columns root-side first, no header.
Trips CSV: origin,destination[,count]; a missing count means 1; no header.
Dataset container: a pickled dict of primitives (format tag, leaf paths,
aggregated trips); load rebuilds through the normal constructors so every
validation rule re-runs.
Release CSV: header depth,origin,destination,flow; tree mechanisms store all
depths, leaf mechanisms only the leaf depth. Zero values are omitted (they
read back as absent, which evaluates as zero).
"""

from __future__ import annotations

import csv
import pickle
from typing import Dict, List, Optional, Tuple

from .errors import DataError
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
]

DATASET_FORMAT = "od-dataset/1"


def _read_rows(path: str) -> List[List[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def read_hierarchy_csv(path: str) -> PartitionHierarchy:
    return parse_hierarchy(_read_rows(path))


def write_hierarchy_csv(hier: PartitionHierarchy, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for leaf in hier.leaves:
            writer.writerow(hier.path(leaf)[1:])


def read_trips_csv(path: str, origin: PartitionHierarchy, dest: PartitionHierarchy) -> TripTable:
    return ingest_trips(_read_rows(path), origin, dest)


def write_trips_csv(table: TripTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=4)


def load_dataset(path: str) -> TripTable:
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (pickle.UnpicklingError, EOFError) as exc:
        raise DataError(f"{path} is not a dataset container: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != DATASET_FORMAT:
        raise DataError(f"{path} is not a {DATASET_FORMAT} container")
    origin = parse_hierarchy(payload["origin_paths"])
    dest = parse_hierarchy(payload["dest_paths"])
    return ingest_trips(payload["trips"], origin, dest)


def write_release_csv(levels: Dict[int, Dict[Key, int]], path: str) -> None:
    """Persist released values; ``levels`` maps depth -> {(o, d): value}."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
        try:
            depth = int(row[0])
            value = int(row[3])
        except ValueError:
            raise DataError(f"malformed release row {row!r}") from None
        levels.setdefault(depth, {})[(row[1], row[2])] = value
    return levels
