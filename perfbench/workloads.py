"""Workload definitions: inputs from a seed, the timed operations, and the
check every operation's output must pass.

Every library call goes through a module attribute looked up at call time
(``evaluate.run_mechanism``, ``cli.main``, ...), so the traced run can swap in
its wrappers and the untraced run calls the package exactly as shipped.

Two workloads:

* ``binary-complete``: the 256x256 complete binary fixture (depth 16). Every
  parent is positive and the fan-out is 2, so per-parent fixed costs
  (substream derivation, tiny solves) peak here.
* ``cli-sparse-1m``: a 1M-cell binary universe at 1% occupancy (depth 20)
  driven through ``inftda.cli.main`` in-process; the only workload where
  dataset loading, CSV I/O and the CLI's own work run, and the one that runs
  the Euclidean (``tda-l2``) solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from inftda import cli, dataio, evaluate, hierarchy, synth
from inftda.dpcore import PrivacyBudget, SensitivityModel, stability_threshold
from inftda.hierarchy import ROOT_AREA, HierTree, validate_consistency

EPSILON = 1.0
DELTA = 1e-8
ORDER = "ascending"

# End-to-end metric fed by each operation. Every workload feeds each of them,
# so every workload prints every end-to-end metric.
RELEASE = "release_p75_s.inftda"
SH = "release_p75_s.sh"
EVAL = "evaluate_p75_s"
OTHER = "other_ops_p75_s"

Levels = List[Dict[Any, int]]


@dataclass
class Op:
    """One timed operation. ``run`` is timed; ``check`` and ``digest`` are not.

    ``check`` returns a list of problems (empty means the output is correct).
    """

    name: str
    metric: str
    run: Callable[["Context", int], Any]
    check: Callable[["Context", Any], List[str]]
    digest: Callable[[Any], Optional[str]] = lambda result: None
    # untimed accuracy figure of the output: leaf mean |error| of an inftda
    # release, leaf max |error| of an evaluation
    quality: Optional[Callable[["Context", Any], float]] = None
    # separately timed and checked samples per cycle of the op mix; ops well
    # under a second take several, so that their upper quartile rests on many
    # short samples instead of a few
    samples: int = 1
    # untimed step before every timed sample
    reset: Callable[["Context"], None] = lambda ctx: None


@dataclass
class Context:
    """Inputs of one run, plus state handed from one operation to the next."""

    table: Any = None  # TripTable (the library workload; truth for the CLI checks)
    tree: Any = None  # true HierTree
    workdir: str = ""
    last_levels: Optional[Levels] = None  # latest inftda release, for evaluate


@dataclass
class Workload:
    name: str
    default_seed: int
    setup: Callable[[int, str], Context]
    ops: List[Op]
    # (universe, support, n at the default seed, depth); None skips the pin
    shape: Optional[tuple]
    # untimed step after setup that loads the truth the checks compare against
    prepare: Callable[[Context], None] = lambda ctx: None


# ---------------------------------------------------------------------------
# output checks


def levels_digest(levels: Levels) -> str:
    """SHA-256 of the canonical released rows (depth, origin, destination, value)."""
    h = hashlib.sha256()
    for depth, level in enumerate(levels):
        for (o, d), v in sorted(level.items()):
            h.update(f"{depth},{o},{d},{v}\n".encode())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def leaf_mean_abs_error(truth: HierTree, leaves: Dict[Any, int]) -> float:
    """Mean |true - released| over the union of the true and released leaf supports."""
    t = truth.levels[-1]
    keys = t.keys() | leaves.keys()
    return sum(abs(t.get(k, 0) - leaves.get(k, 0)) for k in keys) / max(len(keys), 1)


def check_tree_release(levels: Levels, truth: HierTree) -> List[str]:
    """Non-negative integers, root equal to the true n, parent = sum of children."""
    if len(levels) != truth.depth + 1:
        return [f"{len(levels)} level maps for a depth-{truth.depth} tree"]
    problems = []
    for depth, level in enumerate(levels):
        for key, v in level.items():
            if type(v) is not int or v < 0:
                problems.append(f"depth {depth} {key}: value {v!r} is not a non-negative int")
                break
    root = levels[0].get((ROOT_AREA, ROOT_AREA))
    if root != truth.n:
        problems.append(f"root {root!r} != true n {truth.n}")
    if not problems:
        copy = [dict(level) for level in levels]
        bad = validate_consistency(HierTree(truth.mode, truth.origin, truth.dest, copy))
        if bad:
            problems.append(f"{len(bad)} consistency violations, first {bad[0]}")
    return problems


def check_sh_leaves(leaves: Dict[Any, int], support, threshold: float) -> List[str]:
    """Stability histogram: only populated cells, none under the threshold."""
    for key, v in leaves.items():
        if key not in support:
            return [f"sh released {key}, which is not in the true support"]
        if type(v) is not int or v < threshold:
            return [f"sh released {v!r} at {key}, under the threshold {threshold:.3f}"]
    return []


def check_vanilla_leaves(leaves: Dict[Any, int], truth: HierTree) -> List[str]:
    o_leaves = set(truth.origin.leaves)
    d_leaves = set(truth.dest.leaves)
    for (o, d), v in leaves.items():
        if o not in o_leaves or d not in d_leaves:
            return [f"vanilla-gauss released {(o, d)}, outside the universe"]
        if type(v) is not int:
            return [f"vanilla-gauss released non-integer {v!r} at {(o, d)}"]
    return []


def check_report(errors: List[int], fdrs: List[float], levels: Levels, truth: HierTree) -> List[str]:
    """Evaluation output: one entry per depth, exact root, leaf error recomputed."""
    if len(errors) != truth.depth + 1 or len(fdrs) != truth.depth + 1:
        return [f"report has {len(errors)} error and {len(fdrs)} FDR rows, want {truth.depth + 1}"]
    if errors[0] != 0:
        return [f"root error {errors[0]} in bounded mode"]
    if any(type(e) is not int or e < 0 for e in errors):
        return ["negative or non-integer max error"]
    if any(not 0.0 <= f <= 100.0 for f in fdrs):
        return ["false discovery rate outside [0, 100]"]
    t, r = truth.levels[-1], levels[-1]
    leaf_err = max((abs(t.get(k, 0) - r.get(k, 0)) for k in t.keys() | r.keys()), default=0)
    if leaf_err != errors[-1]:
        return [f"leaf max error {errors[-1]} != recomputed {leaf_err}"]
    return []


# ---------------------------------------------------------------------------
# library workload (binary-complete)


def _budget():
    return PrivacyBudget.from_eps_delta(EPSILON, DELTA), SensitivityModel()


def _lib_setup(make_table: Callable[[int], Any]) -> Callable[[int, str], Context]:
    def setup(seed: int, workdir: str) -> Context:
        table = make_table(seed)
        tree = hierarchy.build_tree(table, "destination")
        return Context(table=table, tree=tree, workdir=workdir)

    return setup


def _mechanism_op(mechanism: str, metric: str) -> Op:
    def run(ctx: Context, seed: int):
        budget, sens = _budget()
        levels, _ = evaluate.run_mechanism(
            mechanism, ctx.table, ctx.tree, budget, sens, ORDER, seed
        )
        if mechanism == "inftda":
            ctx.last_levels = levels
        return levels

    def check(ctx: Context, levels) -> List[str]:
        if mechanism == "sh":
            return check_sh_leaves(levels[-1], ctx.table.counts, stability_threshold(EPSILON, DELTA))
        if mechanism == "vanilla-gauss":
            return check_vanilla_leaves(levels[-1], ctx.tree)
        return check_tree_release(levels, ctx.tree)

    def quality(ctx: Context, levels) -> float:
        return leaf_mean_abs_error(ctx.tree, levels[-1])

    return Op(mechanism, metric, run, check, levels_digest,
              quality if mechanism == "inftda" else None)


def _evaluate_op() -> Op:
    def run(ctx: Context, seed: int):
        levels = ctx.last_levels
        if levels is None:
            raise RuntimeError("no inftda release to evaluate")
        errors = evaluate.max_abs_error_per_level(ctx.tree, levels)
        fdrs = [evaluate.false_discovery_rate(ctx.tree, levels, d) for d in range(ctx.tree.depth + 1)]
        return errors, fdrs, levels

    def check(ctx: Context, result) -> List[str]:
        errors, fdrs, levels = result
        return check_report(errors, fdrs, levels, ctx.tree)

    return Op("evaluate", EVAL, run, check, quality=lambda ctx, result: result[0][-1])


def _binary_complete_table(seed: int):
    return synth.gen_dataset(synth.SynthSpec(kind="binary"), seed)


# ---------------------------------------------------------------------------
# CLI workload (cli-sparse-1m)


def _cli(argv: List[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_setup(levels: int, sparsity: float) -> Callable[[int, str], Context]:
    def setup(seed: int, workdir: str) -> Context:
        argv = ["synth", "--kind", "binary", "--levels", str(levels),
                "--sparsity", str(sparsity), "--seed", str(seed), "--out", workdir]
        code = _cli(argv)
        if code != 0:
            raise RuntimeError(f"inftda synth exited {code}")
        return Context(workdir=workdir)

    return setup


def cli_truth(ctx: Context) -> None:
    """Load the synthesized dataset for the output checks (untimed, once)."""
    w = ctx.workdir
    origin = dataio.read_hierarchy_csv(os.path.join(w, "origin_hierarchy.csv"))
    dest = dataio.read_hierarchy_csv(os.path.join(w, "destination_hierarchy.csv"))
    ctx.table = dataio.read_trips_csv(os.path.join(w, "trips.csv"), origin, dest)
    ctx.tree = hierarchy.build_tree(ctx.table, "destination")


def _cli_path(ctx: Context, name: str) -> str:
    return os.path.join(ctx.workdir, name)


def _remove_output(name: str) -> Callable[[Context], None]:
    """Delete an op's previous output, so that every sample writes a new file.
    Overwriting truncates the old file, and on ext4 the write can then wait on
    the old file's writeback: a disk delay, not work of the program."""

    def reset(ctx: Context) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(_cli_path(ctx, name))

    return reset


def _cli_ingest_op() -> Op:
    def run(ctx: Context, seed: int):
        out = _cli_path(ctx, "dataset.pkl")
        code = _cli(["ingest", "--hierarchy-o", _cli_path(ctx, "origin_hierarchy.csv"),
                     "--hierarchy-d", _cli_path(ctx, "destination_hierarchy.csv"),
                     "--trips", _cli_path(ctx, "trips.csv"), "--out", out])
        return code, out

    def check(ctx: Context, result) -> List[str]:
        code, out = result
        if code != 0:
            return [f"ingest exited {code}"]
        loaded = dataio.load_dataset(out)
        if loaded.counts != ctx.table.counts:
            return ["ingested dataset differs from the trips CSV"]
        return []

    return Op("cli.ingest", OTHER, run, check, lambda r: file_digest(r[1]),
              reset=_remove_output("dataset.pkl"))


def _cli_release_op(mechanism: str, metric: str, out_name: str) -> Op:
    def run(ctx: Context, seed: int):
        out = _cli_path(ctx, out_name)
        code = _cli(["release", "--data", _cli_path(ctx, "dataset.pkl"), "--mechanism", mechanism,
                     "--epsilon", str(EPSILON), "--delta", str(DELTA), "--seed", str(seed),
                     "--out", out])
        return code, out

    def check(ctx: Context, result) -> List[str]:
        code, out = result
        if code != 0:
            return [f"release --mechanism {mechanism} exited {code}"]
        stored = dataio.read_release_csv(out)
        depth = ctx.tree.depth
        if mechanism == "sh":
            return check_sh_leaves(stored.get(depth, {}), ctx.table.counts,
                                   stability_threshold(EPSILON, DELTA))
        return check_tree_release([stored.get(d, {}) for d in range(depth + 1)], ctx.tree)

    def quality(ctx: Context, result) -> float:
        leaves = dataio.read_release_csv(result[1]).get(ctx.tree.depth, {})
        return leaf_mean_abs_error(ctx.tree, leaves)

    return Op(f"cli.release.{mechanism}", metric, run, check, lambda r: file_digest(r[1]),
              quality if mechanism == "inftda" else None, reset=_remove_output(out_name))


def _cli_evaluate_op() -> Op:
    def run(ctx: Context, seed: int):
        out = _cli_path(ctx, "eval_inftda.csv")
        code = _cli(["evaluate", "--truth", _cli_path(ctx, "dataset.pkl"),
                     "--release", _cli_path(ctx, "release_inftda.csv"), "--out", out])
        return code, out

    def check(ctx: Context, result) -> List[str]:
        code, out = result
        if code != 0:
            return [f"evaluate exited {code}"]
        with open(out, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != ctx.tree.depth + 1:
            return [f"evaluate report has {len(rows)} rows, want {ctx.tree.depth + 1}"]
        return []

    def leaf_max_error(ctx: Context, result) -> int:
        with open(result[1], encoding="utf-8") as fh:
            return int(fh.read().splitlines()[-1].split(",")[1])

    return Op("cli.evaluate", EVAL, run, check, lambda r: file_digest(r[1]), leaf_max_error,
              reset=_remove_output("eval_inftda.csv"))


# ---------------------------------------------------------------------------
# the table


def make_workloads(toy: bool = False) -> Dict[str, Workload]:
    """All workloads. ``toy`` shrinks every instance for the self-test and
    drops the shape pins, which only hold at full size."""

    def sampled(op: Op, samples: int) -> Op:
        return op if toy else replace(op, samples=samples)

    if toy:
        binary = lambda seed: synth.gen_dataset(synth.SynthSpec(kind="binary", levels=3), seed)
        cli_setup = _cli_setup(3, 0.3)
    else:
        binary, cli_setup = _binary_complete_table, _cli_setup(10, 0.01)

    def pins(shape: tuple) -> Optional[tuple]:
        return None if toy else shape

    return {
        "binary-complete": Workload(
            "binary-complete", 0, _lib_setup(binary),
            [_mechanism_op("inftda", RELEASE), sampled(_evaluate_op(), 4),
             _mechanism_op("vanilla-gauss", OTHER), _mechanism_op("sh", SH)],
            pins((65_536, 65_536, 127_892, 16)),
        ),
        "cli-sparse-1m": Workload(
            "cli-sparse-1m", 0, cli_setup,
            [sampled(_cli_ingest_op(), 4), _cli_release_op("inftda", RELEASE, "release_inftda.csv"),
             sampled(_cli_evaluate_op(), 2), sampled(_cli_release_op("sh", SH, "release_sh.csv"), 2),
             _cli_release_op("tda-l2", OTHER, "release_tda_l2.csv")],
            pins((1_048_576, 10_486, 20_135, 20)), cli_truth,
        ),
    }


def check_shape(wl: Workload, ctx: Context, seed: int) -> List[str]:
    """Compare the generated instance with the pinned shape."""
    if wl.shape is None:
        return []
    universe, support, n, depth = wl.shape
    got = (ctx.table.universe_size, len(ctx.table), ctx.table.n, ctx.tree.depth)
    want = (universe, support, n if seed == wl.default_seed else got[2], depth)
    if got != want:
        return [f"{wl.name} shape (universe, support, n, depth) = {got}, pinned {want}"]
    return []
