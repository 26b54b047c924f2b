"""Span tracing from outside the package, for the per-layer metrics.

``Tracer.install`` replaces each traced name with a wrapper on the module (or
class) that the caller looks it up on, e.g. ``inftda.topdown.substream`` for
the per-parent streams of the top-down release. While the tracer is active a
wrapper records one span per call: name, start, end, parent span, operation
id and tree depth. Spans stay in flat arrays in memory; ``restore`` puts every
original back. A name that no longer exists is skipped and reported as
missing, and any metric built only from missing names is marked missing.

Tree depth comes from the substream tokens: the top-down release derives one
stream per expanded parent as ``substream(seed, parent_depth, o, d)``, so every
span after that call, up to the next one, belongs to child depth
``parent_depth + 1``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# span name -> the module attribute (or Class.method) it wraps
TARGETS: Dict[str, Tuple[str, str]] = {
    "gauss.topdown": ("inftda.topdown", "sample_discrete_gaussian"),
    "gauss.baselines": ("inftda.baselines", "sample_discrete_gaussian"),
    "laplace.dpcore": ("inftda.dpcore", "sample_discrete_laplace"),
    "laplace.baselines": ("inftda.baselines", "sample_discrete_laplace"),
    "substream.topdown": ("inftda.topdown", "substream"),
    "substream.baselines": ("inftda.baselines", "substream"),
    "intopt": ("inftda.topdown", "intopt_fast"),
    "release.evaluate": ("inftda.evaluate", "release"),
    "release.baselines": ("inftda.baselines", "release"),
    "release.cli": ("inftda.cli", "release"),
    "build_tree.hierarchy": ("inftda.hierarchy", "build_tree"),
    "build_tree.cli": ("inftda.cli", "build_tree"),
    "aggregate.evaluate": ("inftda.evaluate", "aggregate_up"),
    "aggregate.cli": ("inftda.cli", "aggregate_up"),
    "child_keys": ("inftda.hierarchy", "HierTree.child_keys"),
    "validate.parse_hierarchy": ("inftda.dataio", "parse_hierarchy"),
    "validate.ingest_trips": ("inftda.dataio", "ingest_trips"),
    "vanilla_gauss.evaluate": ("inftda.evaluate", "vanilla_gauss"),
    "vanilla_gauss.cli": ("inftda.cli", "vanilla_gauss"),
    "sh.evaluate": ("inftda.evaluate", "stability_histogram"),
    "sh.cli": ("inftda.cli", "stability_histogram"),
    "l2_solver": ("inftda.baselines", "_euclidean_solver"),
    "max_abs_error.evaluate": ("inftda.evaluate", "max_abs_error_per_level"),
    "max_abs_error.cli": ("inftda.cli", "max_abs_error_per_level"),
    "fdr.evaluate": ("inftda.evaluate", "false_discovery_rate"),
    "fdr.cli": ("inftda.cli", "false_discovery_rate"),
    "read.load_dataset": ("inftda.cli", "load_dataset"),
    "read.release_csv": ("inftda.cli", "read_release_csv"),
    "read.hierarchy_csv": ("inftda.cli", "read_hierarchy_csv"),
    "read.trips_csv": ("inftda.cli", "read_trips_csv"),
    "write.save_dataset": ("inftda.cli", "save_dataset"),
    "write.release_csv": ("inftda.cli", "write_release_csv"),
    "write.hierarchy_csv": ("inftda.cli", "write_hierarchy_csv"),
    "write.trips_csv": ("inftda.cli", "write_trips_csv"),
    "cli.main": ("inftda.cli", "main"),
    "synth.gen_dataset": ("inftda.synth", "gen_dataset"),
    "synth.gen_partition": ("inftda.synth", "gen_partition"),
    "synth.gen_flows": ("inftda.synth", "gen_flows"),
    "synth.cli_gen_partition": ("inftda.cli", "gen_partition"),
    "synth.cli_gen_flows": ("inftda.cli", "gen_flows"),
}

# path argument position of the dataio calls, for the byte counters
_PATH_ARG = {
    "read.load_dataset": 0, "read.release_csv": 0, "read.hierarchy_csv": 0,
    "read.trips_csv": 0, "write.save_dataset": 1, "write.release_csv": 1,
    "write.hierarchy_csv": 1, "write.trips_csv": 1,
}

SETUP_OP = -1


def group(prefix: str) -> List[str]:
    return [n for n in TARGETS if n == prefix or n.startswith(prefix + ".")]


class Tracer:
    """Records spans from wrappers installed on the package's module names."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = SETUP_OP
        self.depth = -1
        self.names: List[str] = list(TARGETS)
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.span_depth = array("b")
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.releases: List[Tuple[int, list]] = []  # (op id, per_level) of traced releases
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, only: Optional[List[str]] = None) -> None:
        self.missing = []
        for span_name in only or TARGETS:
            module_name, attr_path = TARGETS[span_name]
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span_name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def restore(self) -> None:
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count(self, key: str, value: float) -> None:
        if self.op_id == SETUP_OP:
            return
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, fn: Callable, span_name: str) -> Callable:
        name_id = self.names.index(span_name)
        before = after = None
        if span_name == "substream.topdown":
            def before(args):
                # (seed, parent depth, o, d) per expanded parent; (seed, "root") otherwise
                if len(args) > 1 and isinstance(args[1], int):
                    self.depth = args[1] + 1
                    self._count("parents_expanded", 1)
        elif span_name == "intopt":
            def after(args, result):
                self._count("intopt.fanout", len(args[0]))
                self._count("intopt.distance", result.distance)
                self.counters["intopt.max_distance"] = max(
                    self.counters.get("intopt.max_distance", 0), result.distance)
        elif span_name.startswith("release."):
            def after(args, result):
                self.depth = -1
                self.releases.append((self.op_id, list(result.per_level)))
                self._count("nodes_released", sum(len(m) for m in result.tree.levels[1:]))
        elif span_name.startswith("vanilla_gauss."):
            def after(args, result):
                self._count("vanilla.support", len(args[0]))
                self._count("vanilla.cells", args[0].universe_size)
        elif span_name in _PATH_ARG:
            key = "bytes_read" if span_name.startswith("read.") else "bytes_written"
            pos = _PATH_ARG[span_name]

            def after(args, result):
                if len(args) > pos and os.path.exists(args[pos]):
                    self._count(key, os.path.getsize(args[pos]))

        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(self.t0)
            stack = self.stack
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(name_id)
            self.op.append(self.op_id)
            self.span_depth.append(self.depth)
            self.t1.append(0.0)
            stack.append(idx)
            self.t0.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.t0, dtype=np.float64),
            "end": np.frombuffer(self.t1, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "depth": np.frombuffer(self.span_depth, dtype=np.int8),
        }

    def save(self, path: str, op_names: List[str]) -> None:
        np.savez_compressed(path, names=np.array(self.names), op_names=np.array(op_names),
                            **self.arrays())


class SpanStats:
    """Busy time, self time and call counts of the recorded spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.tracer = tracer
        self.name = a["name"]
        self.op = a["op"]
        self.depth = a["depth"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        child = self.parent >= 0
        child_time = np.bincount(self.parent[child], weights=self.dur[child],
                                 minlength=len(self.dur))
        self.self_time = self.dur - child_time
        self.in_ops = self.op >= 0

    def mask(self, names: List[str], in_ops: bool = True) -> np.ndarray:
        ids = [self.tracer.names.index(n) for n in names]
        m = np.isin(self.name, ids)
        return m & self.in_ops if in_ops else m

    def busy(self, names: List[str], in_ops: bool = True) -> float:
        return float(self.dur[self.mask(names, in_ops)].sum())

    def self_s(self, names: List[str]) -> float:
        return float(self.self_time[self.mask(names)].sum())

    def calls(self, names: List[str], in_ops: bool = True) -> int:
        return int(self.mask(names, in_ops).sum())

    def calls_under(self, names: List[str], parents: List[str]) -> int:
        """Calls of ``names`` whose direct parent span is one of ``parents``."""
        m = self.mask(names)
        p = self.parent[m]
        p = p[p >= 0]
        parent_ids = [self.tracer.names.index(n) for n in parents]
        return int(np.isin(self.name[p], parent_ids).sum())


# unit, better, and the span names a metric needs (missing if none installed)
PER_LAYER: Dict[str, Tuple[str, str, List[str]]] = {
    "dpcore.gauss.calls": ("count/cycle", "lower", group("gauss")),
    "dpcore.gauss.busy_s": ("s/cycle", "lower", group("gauss")),
    "dpcore.gauss.us_per_call": ("us", "lower", group("gauss")),
    "dpcore.gauss.accept_ratio": ("ratio", "higher", group("gauss") + group("laplace")),
    "dpcore.laplace.calls": ("count/cycle", "lower", group("laplace")),
    "dpcore.laplace.busy_s": ("s/cycle", "lower", group("laplace")),
    "dpcore.substream.calls": ("count/cycle", "lower", group("substream")),
    "dpcore.substream.busy_s": ("s/cycle", "lower", group("substream")),
    "intopt.calls": ("count/cycle", "lower", ["intopt"]),
    "intopt.busy_s": ("s/cycle", "lower", ["intopt"]),
    "intopt.mean_fanout": ("count", "lower", ["intopt"]),
    "intopt.mean_distance": ("count", "lower", ["intopt"]),
    "intopt.max_distance": ("count", "lower", ["intopt"]),
    "topdown.self_s": ("s/cycle", "lower", group("release")),
    "topdown.parents_expanded": ("count/cycle", "lower", ["substream.topdown"]),
    "topdown.children_noised": ("count/cycle", "lower", ["gauss.topdown"]),
    "topdown.nodes_released": ("count/cycle", "lower", group("release")),
    "topdown.useful_ratio": ("ratio", "higher", group("release") + ["gauss.topdown"]),
    "topdown.deep_quarter_share": ("%", "lower", group("release")),
    "hierarchy.build_tree_s": ("s/call", "lower", group("build_tree")),
    "hierarchy.aggregate_s": ("s/cycle", "lower", group("aggregate")),
    "hierarchy.child_keys.calls": ("count/cycle", "lower", ["child_keys"]),
    "hierarchy.child_keys.busy_s": ("s/cycle", "lower", ["child_keys"]),
    "hierarchy.validate_s": ("s/cycle", "lower", group("validate")),
    "baselines.vanilla_gauss.busy_s": ("s/cycle", "lower", group("vanilla_gauss")),
    "baselines.vanilla_gauss.useful_ratio": ("ratio", "higher", group("vanilla_gauss")),
    "baselines.sh.busy_s": ("s/cycle", "lower", group("sh")),
    "baselines.tda_l2.self_s": ("s/cycle", "lower", ["l2_solver"]),
    "evaluate.max_abs_error_s": ("s/cycle", "lower", group("max_abs_error")),
    "evaluate.fdr_s": ("s/cycle", "lower", group("fdr")),
    "dataio.read_s": ("s/cycle", "lower", group("read")),
    "dataio.write_s": ("s/cycle", "lower", group("write")),
    "dataio.bytes_read": ("B/cycle", "lower", group("read")),
    "dataio.bytes_written": ("B/cycle", "lower", group("write")),
    "cli.self_s": ("s/cycle", "lower", ["cli.main"]),
    "synth.gen_s": ("s/setup", "lower", group("synth")),
    "trace.overhead_pct": ("%", "lower", []),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def deep_quarter_share(per_levels: List[list]) -> float:
    """Share of release wall time spent in the deepest quarter of depths, in %."""
    total = deep = 0.0
    for per_level in per_levels:
        depth = len(per_level) - 1
        first_deep = depth - max(1, depth // 4) + 1
        for row in per_level:
            total += row["wall_ms"]
            if row["depth"] >= first_deep:
                deep += row["wall_ms"]
    return 100.0 * _ratio(deep, total)


def layer_metrics(tracer: Tracer, cycles: int, setups: int,
                  untraced_levels: List[list], overhead_pct: float) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric, per traced cycle unless its unit says otherwise.

    Returns (values, names of metrics whose traced names all went missing).
    """
    st = SpanStats(tracer)
    c = tracer.counters
    per = 1.0 / max(cycles, 1)
    gauss, laplace = group("gauss"), group("laplace")
    gauss_calls = st.calls(gauss)
    intopt_calls = st.calls(["intopt"])
    releases = group("release")
    release_self = st.self_s(releases)
    values = {
        "dpcore.gauss.calls": gauss_calls * per,
        "dpcore.gauss.busy_s": st.busy(gauss) * per,
        "dpcore.gauss.us_per_call": 1e6 * _ratio(st.busy(gauss), gauss_calls),
        "dpcore.gauss.accept_ratio": _ratio(gauss_calls, st.calls_under(laplace, gauss)),
        "dpcore.laplace.calls": st.calls(laplace) * per,
        "dpcore.laplace.busy_s": st.busy(laplace) * per,
        "dpcore.substream.calls": st.calls(group("substream")) * per,
        "dpcore.substream.busy_s": st.busy(group("substream")) * per,
        "intopt.calls": intopt_calls * per,
        "intopt.busy_s": st.busy(["intopt"]) * per,
        "intopt.mean_fanout": _ratio(c.get("intopt.fanout", 0), intopt_calls),
        "intopt.mean_distance": _ratio(c.get("intopt.distance", 0), intopt_calls),
        "intopt.max_distance": c.get("intopt.max_distance", 0),
        "topdown.self_s": release_self * per,
        "topdown.parents_expanded": c.get("parents_expanded", 0) * per,
        "topdown.children_noised": st.calls(["gauss.topdown"]) * per,
        "topdown.nodes_released": c.get("nodes_released", 0) * per,
        "topdown.useful_ratio": _ratio(c.get("nodes_released", 0), st.calls(["gauss.topdown"])),
        "topdown.deep_quarter_share": deep_quarter_share(untraced_levels),
        "hierarchy.build_tree_s": _ratio(st.busy(group("build_tree"), in_ops=False),
                                         st.calls(group("build_tree"), in_ops=False)),
        "hierarchy.aggregate_s": st.busy(group("aggregate")) * per,
        "hierarchy.child_keys.calls": st.calls(["child_keys"]) * per,
        "hierarchy.child_keys.busy_s": st.busy(["child_keys"]) * per,
        "hierarchy.validate_s": st.busy(group("validate")) * per,
        "baselines.vanilla_gauss.busy_s": st.busy(group("vanilla_gauss")) * per,
        "baselines.vanilla_gauss.useful_ratio": _ratio(c.get("vanilla.support", 0),
                                                       c.get("vanilla.cells", 0)),
        "baselines.sh.busy_s": st.busy(group("sh")) * per,
        "baselines.tda_l2.self_s": st.busy(["l2_solver"]) * per,
        "evaluate.max_abs_error_s": st.busy(group("max_abs_error")) * per,
        "evaluate.fdr_s": st.busy(group("fdr")) * per,
        "dataio.read_s": st.busy(group("read")) * per,
        "dataio.write_s": st.busy(group("write")) * per,
        "dataio.bytes_read": c.get("bytes_read", 0) * per,
        "dataio.bytes_written": c.get("bytes_written", 0) * per,
        "cli.self_s": st.self_s(["cli.main"]) * per,
        "synth.gen_s": _ratio(st.busy(group("synth"), in_ops=False) - _nested_synth(st), setups),
        "trace.overhead_pct": overhead_pct,
    }
    installed = set(TARGETS) - set(tracer.missing)
    missing = [m for m, (_, _, needs) in PER_LAYER.items() if needs and not installed & set(needs)]
    return values, missing


def _nested_synth(st: SpanStats) -> float:
    """gen_dataset calls gen_partition/gen_flows; count that time once."""
    m = st.mask(group("synth"), in_ops=False)
    p = st.parent[m]
    inner = p >= 0
    nested = np.zeros(len(p), dtype=bool)
    nested[inner] = np.isin(st.name[p[inner]], [st.tracer.names.index(n) for n in group("synth")])
    return float(st.dur[m][nested].sum())


def depth_split(tracer: Tracer, op_names: List[str], untraced: Dict[str, List[list]]) -> Dict[str, list]:
    """Per release mechanism and depth: wall time and its split, ms per release.

    ``wall_ms`` and ``untraced_wall_ms`` are the release's own per-level timing
    (traced and untraced); the split columns come from spans attributed to the
    depth, and ``bookkeeping_ms`` is what the traced wall time leaves over.
    """
    st = SpanStats(tracer)
    groups = {
        "substream_ms": ["substream.topdown"],
        "sampling_ms": ["gauss.topdown"],
        "solve_ms": ["intopt", "l2_solver"],
        "child_keys_ms": ["child_keys"],
    }
    out: Dict[str, list] = {}
    by_mech: Dict[str, List[Tuple[int, list]]] = {}
    for op_id, per_level in tracer.releases:
        by_mech.setdefault(op_names[op_id], []).append((op_id, per_level))
    for mech, runs in by_mech.items():
        op_ids = [op_id for op_id, _ in runs]
        n = len(runs)
        in_mech = np.isin(st.op, op_ids)
        plain = untraced.get(mech, [])
        rows = []
        for depth in range(len(runs[0][1])):
            row = {"depth": depth,
                   "wall_ms": sum(pl[depth]["wall_ms"] for _, pl in runs) / n,
                   "untraced_wall_ms": (sum(pl[depth]["wall_ms"] for pl in plain) / len(plain)
                                        if plain else None)}
            at_depth = in_mech & (st.depth == depth)
            split = 0.0
            for key, names in groups.items():
                ms = 1e3 * float(st.dur[at_depth & st.mask(names, in_ops=False)].sum()) / n
                row[key] = ms
                split += ms
            row["bookkeeping_ms"] = row["wall_ms"] - split
            rows.append(row)
        out[mech] = rows
    return out

