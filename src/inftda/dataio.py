"""On-disk formats: hierarchy and trip CSVs, the ingested dataset container,
released tables, and JSON files.

Hierarchy CSV: one row per leaf, g columns root-side first, no header.
Trips CSV: origin,destination[,count]; a missing count means 1; no header.
Dataset container (``od-dataset/3``): one compact JSON object. It holds the
format tag; per side, each level's area ids once, in sorted order, with the
index of each area's parent in the level above; and the aggregated trips as
three integer columns (origin leaf index, destination leaf index, count) in
(origin, destination) order. Loading checks every field in C-level passes
and builds each hierarchy through the constructor ``parse_hierarchy`` ends
in; reading it never runs code, and any other container (an older ``/2``
one, a pickle) is refused with a request to re-ingest it.
Release CSV: header depth,origin,destination,flow; tree mechanisms store all
depths, leaf mechanisms only the leaf depth. Zero values are omitted (they
read back as absent, which evaluates as zero); a node given twice is a
DataError. The bytes are those ``csv.writer`` writes.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import count, islice, repeat
from operator import itemgetter, lt
from types import SimpleNamespace
from typing import Dict, List

from .errors import ConfigError, DataError
from .hierarchy import (
    ROOT_AREA,
    Key,
    PartitionHierarchy,
    TripTable,
    _from_parents,
    ingest_trips,
    parse_hierarchy,
)

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

DATASET_FORMAT = "od-dataset/3"


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


def _side_block(hier: PartitionHierarchy) -> dict:
    """A hierarchy as the container stores it: each level's areas in sorted
    order, and for each area the index of its parent in the level above."""
    areas = [list(hier.areas(level)) for level in range(1, hier.levels + 1)]
    parents = []
    for above, ids, up in zip([[ROOT_AREA], *areas], areas, hier._parents[1:]):
        index = dict(zip(above, count()))
        parents.append(list(map(index.__getitem__, map(up.__getitem__, ids))))
    return {"areas": areas, "parents": parents}


def save_dataset(table: TripTable, path: str) -> None:
    o_index, d_index = (dict(zip(side.leaves, count())) for side in (table.origin, table.dest))
    # leaf indices follow the sorted ids, so these rows sort in (origin, destination) order
    rows = sorted(zip(map(o_index.__getitem__, map(itemgetter(0), table.counts)),
                      map(d_index.__getitem__, map(itemgetter(1), table.counts)),
                      table.counts.values()))
    o_col, d_col, c_col = map(list, zip(*rows)) if rows else ([], [], [])
    payload = {
        "format": DATASET_FORMAT,
        "origin": _side_block(table.origin),
        "dest": _side_block(table.dest),
        "trips": {"origin": o_col, "dest": d_col, "count": c_col},
    }
    with open_output(path) as fh:
        # built above from strings and ints, so there is no cycle to look for
        fh.write(json.dumps(payload, separators=(",", ":"), check_circular=False))


def _indices(values: list, bound: int) -> bool:
    """Whether every value is an int (not a bool) in [0, bound)."""
    return (set(map(type, values)) <= {int}
            and min(values, default=0) >= 0 and max(values, default=0) < bound)


def _block(payload: dict, name: str, path: str) -> dict:
    block = payload.get(name)
    if not isinstance(block, dict):
        raise DataError(f"{path}: the container has no {name!r} block")
    return block


def _load_side(payload: dict, name: str, path: str) -> PartitionHierarchy:
    """The hierarchy in a container's ``name`` block, every field checked."""
    block = _block(payload, name, path)
    areas, parents = block.get("areas"), block.get("parents")
    if not (isinstance(areas, list) and isinstance(parents, list)
            and areas and len(areas) == len(parents)):
        raise DataError(f"{path}: {name!r} needs one 'areas' and one 'parents' list per level")
    maps: List[Dict[str, str]] = [{}]
    above: list = [ROOT_AREA]
    for level, (ids, up) in enumerate(zip(areas, parents), start=1):
        where = f"{path}: {name} level {level}"
        if not isinstance(ids, list) or not ids:
            raise DataError(f"{where} is not a non-empty list of area ids")
        if not (all(map(isinstance, ids, repeat(str))) and all(ids)
                and ids == list(map(str.strip, ids))):
            raise DataError(f"{where} holds an area id that is not a string, "
                            f"is blank or has surrounding whitespace")
        if not all(map(lt, ids, islice(ids, 1, None))):
            raise DataError(f"{where}: area ids are not strictly ascending")
        if not (isinstance(up, list) and len(up) == len(ids) and _indices(up, len(above))):
            raise DataError(f"{where}: 'parents' is not one index into level {level - 1} "
                            f"per area")
        if len(set(up)) != len(above):
            raise DataError(f"{where}: an area of level {level - 1} has no child")
        maps.append(dict(zip(ids, map(above.__getitem__, up))))
        above = ids
    return _from_parents(maps)


def load_dataset(path: str) -> TripTable:
    """The trip table in an ``od-dataset/3`` container. Every field is checked
    (ids, parent and leaf indices, counts, repeated pairs) and a table that
    fails is a DataError; reading one never runs code."""
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
    origin = _load_side(payload, "origin", path)
    dest = _load_side(payload, "dest", path)
    trips = _block(payload, "trips", path)
    columns = [trips.get(name) for name in ("origin", "dest", "count")]
    if not (all(isinstance(c, list) for c in columns) and len(set(map(len, columns))) == 1):
        raise DataError(f"{path}: the container's 'trips' block needs 'origin', 'dest' "
                        f"and 'count' lists of equal length")
    o_col, d_col, c_col = columns
    if not _indices(o_col, len(origin.leaves)):
        raise DataError(f"{path}: a trip's origin is not an origin leaf index")
    if not _indices(d_col, len(dest.leaves)):
        raise DataError(f"{path}: a trip's destination is not a destination leaf index")
    if not (set(map(type, c_col)) <= {int} and min(c_col, default=1) > 0):
        raise DataError(f"{path}: a trip count is not a positive integer")
    counts = dict(zip(zip(map(origin.leaves.__getitem__, o_col),
                          map(dest.leaves.__getitem__, d_col)), c_col))
    if len(counts) < len(c_col):
        raise DataError(f"{path}: an (origin, destination) pair is given twice")
    return TripTable(counts, origin, dest)


class _CsvFields(dict):
    """Each area id as ``csv.writer`` writes it in a row, quoted on first use."""

    def __init__(self) -> None:
        super().__init__()
        self._rows: List[str] = []
        # one write call per row, so each row arrives whole
        self._writer = csv.writer(SimpleNamespace(write=self._rows.append))

    def __missing__(self, area: str) -> str:
        # the empty field after it keeps an empty id from being written as a
        # lone quoted field; the row ends ",\r\n"
        self._writer.writerow((area, ""))
        self[area] = field = self._rows.pop()[:-3]
        return field


def write_release_csv(levels: Dict[int, Dict[Key, int]], path: str) -> None:
    """Persist released values; ``levels`` maps depth -> {(o, d): value}. The
    bytes are those ``csv.writer`` writes, each id quoted once."""
    field = _CsvFields()
    with open_output(path) as fh:
        fh.write("depth,origin,destination,flow\r\n")
        for depth in sorted(levels):
            level = levels[depth]
            keys = sorted(level)
            fh.writelines([f"{depth},{field[o]},{field[d]},{value}\r\n"
                           for (o, d), value in zip(keys, map(level.__getitem__, keys))
                           if value != 0 or depth == 0])


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
