"""The mechanism table, per-level accuracy metrics and the benchmark harness.

``MECHANISMS`` is the one place a mechanism is defined; the CLI and the harness
run every mechanism through ``run_release``, which returns a ``DPRelease``.

Mechanisms are compared level by level on two quantities: the maximum absolute
error over the union of true and released supports (keys absent from both read
as zero and contribute nothing), and the false discovery rate, the percentage
of released-positive nodes whose true count is zero. The sweep and ``inftda
evaluate`` both score a release with ``released_levels`` and ``level_scores``.

``run_experiment`` runs a grid of (mechanism, epsilon) cells, each repeated
with paired per-repeat seeds (repeat r uses the same derived seed for every
mechanism, so per-seed comparisons are honest). Each repeat of each cell is
one job, and the jobs of the whole grid are mapped over a standard-library
pool of forked workers, one per usable CPU, while each release runs on one
CPU; keyed substreams make the result identical for any CPU count. The table
and tree reach the workers through the fork: only the job tuples and their
scores cross a pipe.
Reports serialize to a CSV (one row per level, no timing columns, byte-stable
for a fixed seed) plus a JSON envelope that additionally carries wall-clock
numbers.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from itertools import compress, repeat
from operator import lt, not_, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .baselines import stability_histogram, tda_l2, vanilla_gauss
from .dataio import open_output, sidecar_path, write_json
from .dpcore import PrivacyBudget, SensitivityModel, derive_seed
from .errors import ConfigError, DataError
from .hierarchy import HierTree, Key, TripTable, build_tree
# the roll-up keeps this name because the benchmark's tracer wraps
# ``inftda.evaluate.aggregate_up`` for its ``hierarchy.aggregate_s`` metric
from .hierarchy import aggregate_leaf_map as aggregate_up
from .topdown import DPRelease, ReleaseConfig, release, theoretical_error_envelope

__all__ = [
    "MECHANISMS",
    "LevelStats",
    "EvalReport",
    "max_abs_error_per_level",
    "false_discovery_rate",
    "released_levels",
    "level_scores",
    "run_release",
    "run_mechanism",
    "run_experiment",
    "write_report",
]


# ---------------------------------------------------------------------------
# the mechanism table


@dataclass(frozen=True)
class Mechanism:
    """``run(table, tree, config)`` gives a DPRelease, or the leaf map of a
    ``leaf_only`` mechanism (which never reads ``tree``); ``zcdp`` is False for
    a leaf-only mechanism that is (epsilon, delta)-DP only, so its release
    states no rho."""

    run: Callable
    leaf_only: bool = False
    zcdp: bool = True


# Entries call each mechanism by its module-level name when they run, never
# through a function object stored here, so a rebound name (a tracer, a test
# double) sees every call.
MECHANISMS: Dict[str, Mechanism] = {
    "inftda": Mechanism(lambda table, tree, cfg: release(tree, cfg)),
    "tda-l2": Mechanism(lambda table, tree, cfg: tda_l2(tree, cfg)),
    "tda-linf-random": Mechanism(
        lambda table, tree, cfg: release(
            tree, replace(cfg, order="random"), mechanism="tda-linf-random"),
    ),
    "vanilla-gauss": Mechanism(
        lambda table, tree, cfg: vanilla_gauss(table, cfg.budget, cfg.sensitivity, cfg.seed),
        leaf_only=True,
    ),
    "sh": Mechanism(
        lambda table, tree, cfg: stability_histogram(
            table, cfg.budget, cfg.sensitivity, cfg.seed),
        leaf_only=True,
        zcdp=False,  # Laplace noise plus a threshold
    ),
}


def _mechanism(name: str) -> Mechanism:
    if name not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {name!r}; pick one of {tuple(MECHANISMS)}")
    return MECHANISMS[name]


def run_release(
    name: str,
    table: TripTable,
    mode: str,
    tree: Optional[HierTree],
    config: ReleaseConfig,
) -> DPRelease:
    """Run mechanism ``name`` once on the true ``tree`` (in ``mode``).

    ``tree`` may be None for a leaf-only mechanism. Its leaf map comes back,
    not rolled up, as a release holding the leaf depth alone, which read no
    visit order.
    """
    entry = _mechanism(name)
    start = time.perf_counter()
    out = entry.run(table, tree, config)
    if not entry.leaf_only:
        return out
    wall_ms = (time.perf_counter() - start) * 1000.0
    depth = 2 * table.origin.levels
    levels: List[Dict[Key, int]] = [{} for _ in range(depth)] + [out]
    per_level = [{"depth": depth, "node_count": len(out), "wall_ms": wall_ms}]
    return DPRelease(HierTree(mode, table.origin, table.dest, levels), config, name, per_level,
                     zcdp=entry.zcdp, ordered=False)


# ---------------------------------------------------------------------------
# metrics
#
# Each score is a chain of C-level iterator passes over one depth's maps,
# so no Python frame runs per key.

_positive = partial(lt, 0)  # v -> 0 < v


def max_abs_error_per_level(
    true_tree: HierTree, released_levels: Sequence[Dict[Key, int]]
) -> List[int]:
    """Max |true - released| per depth, over the union of both supports.

    Per depth, ``worst`` is first the largest error over the released keys. A
    true key the release lacks errs by its own |value|, so it can raise the
    maximum only if that is above ``worst``: one pass over the true values
    picks those keys out, and only they are looked up in the release.
    """
    out: List[int] = []
    for depth in range(true_tree.depth + 1):
        t = true_tree.levels[depth]
        r = released_levels[depth] if depth < len(released_levels) else {}
        worst = max(map(abs, map(sub, map(t.get, r, repeat(0)), r.values())), default=0)
        above = [*compress(t, map(lt, repeat(worst), map(abs, t.values())))]
        missed = compress(map(t.__getitem__, above), map(not_, map(r.__contains__, above)))
        out.append(max(map(abs, missed), default=worst))
    return out


def false_discovery_rate(
    true_tree: HierTree, released_levels: Sequence[Dict[Key, int]], depth: int
) -> float:
    """Percentage of released-positive nodes at ``depth`` with true count zero.

    Zero when nothing positive is released at that depth.
    """
    r = released_levels[depth] if depth < len(released_levels) else {}
    positives = list(compress(r, map(_positive, r.values())))
    if not positives:
        return 0.0
    t = true_tree.levels[depth]
    false_pos = len(positives) - sum(map(bool, map(t.get, positives, repeat(0))))
    return 100.0 * false_pos / len(positives)


def released_levels(stored: Dict[int, Dict[Key, int]], truth: HierTree) -> List[Dict[Key, int]]:
    """One released map per depth of ``truth`` from ``stored`` ({depth: map}).

    A release without a root row is leaf-only (tree releases always store the
    root, even at 0) and is rolled up from its leaves; rows at any other depth
    make it a DataError. So is a depth outside ``truth``, or a key naming an
    area that ``truth``'s hierarchies lack at that depth.
    """
    if stored and not 0 <= min(stored) <= max(stored) <= truth.depth:
        raise DataError(
            f"release holds depths {min(stored)}..{max(stored)} "
            f"but the dataset tree spans 0..{truth.depth}"
        )
    if not stored.get(0):
        inner = sorted(d for d, level in stored.items() if level and d != truth.depth)
        if inner:
            raise DataError(f"release has no root row but holds depths {inner}; "
                            f"only a leaf-only release (depth {truth.depth} alone) may omit it")
        return aggregate_up(stored.get(truth.depth, {}), truth.origin, truth.dest, truth.mode)
    for depth, level in stored.items():
        ol, dl = truth.component_levels(depth)
        origins, dests = set(truth.origin.areas(ol)), set(truth.dest.areas(dl))
        for o, d in level:
            if o not in origins or d not in dests:
                side, area, at = ("origin", o, ol) if o not in origins else ("destination", d, dl)
                raise DataError(
                    f"release depth {depth} names unknown {side} area {area!r} at level {at}"
                )
    return [stored.get(d, {}) for d in range(truth.depth + 1)]


def level_scores(
    truth: HierTree, released: Sequence[Dict[Key, int]]
) -> List[Tuple[int, float, int]]:
    """(max abs error, false discovery rate, positive released nodes) at each
    depth of ``truth``; ``released`` holds one map per depth."""
    errors = max_abs_error_per_level(truth, released)
    return [
        (errors[d], false_discovery_rate(truth, released, d),
         sum(map(_positive, released[d].values())))
        for d in range(truth.depth + 1)
    ]


# ---------------------------------------------------------------------------
# one mechanism run


def run_mechanism(
    mechanism: str,
    table: TripTable,
    tree: HierTree,
    budget: PrivacyBudget,
    sens: SensitivityModel,
    order: str,
    seed: int,
):
    """Run one mechanism once; returns (per-depth released maps, the DPRelease).

    Leaf-only output is rolled up into every depth; the release keeps it as
    the mechanism gave it.
    """
    config = ReleaseConfig(budget=budget, sensitivity=sens, order=order, seed=seed)
    rel = run_release(mechanism, table, tree.mode, tree, config)
    return released_levels(dict(enumerate(rel.tree.levels)), tree), rel


# ---------------------------------------------------------------------------
# reports


@dataclass
class LevelStats:
    level: int
    err_min: int
    err_mean: float
    err_max: int
    fdr_min: float
    fdr_mean: float
    fdr_max: float
    nodes_min: int
    nodes_mean: float
    nodes_max: int


def _spread(scores: Sequence[tuple]) -> list:
    """(min, mean, max) over the repeats of each score in turn."""
    # fsum rounds once, on every Python; a float ``sum`` rounds differently from 3.12 on
    return [x for v in zip(*scores) for x in (min(v), math.fsum(v) / len(v), max(v))]


CSV_HEADER = ",".join(f.name for f in fields(LevelStats))


# what a release states about itself, in its sidecar, that each sweep report copies
_STATED = ("rho", "epsilon", "delta", "order", "mode", "sensitivity")


@dataclass
class EvalReport:
    """Aggregated per-level statistics for one (mechanism, budget) cell."""

    mechanism: str
    rho: Optional[float]
    epsilon: Optional[float]
    delta: Optional[float]
    order: Optional[str]
    mode: str
    sensitivity: Dict[str, object]
    seed: int
    repeats: int
    tree_mode: str
    levels: List[LevelStats]
    wall_ms: List[float] = field(default_factory=list)
    envelope: Optional[List[float]] = None

    def csv_text(self) -> str:
        # a float is written with six decimals, an int as it is
        lines = [CSV_HEADER] + [
            ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in astuple(s))
            for s in self.levels
        ]
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        return {
            "schema": "od-release-report/1",
            "mechanism": self.mechanism,
            "rho": self.rho,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "order": self.order,
            "mode": self.mode,
            "sensitivity": self.sensitivity,
            "seed": self.seed,
            "repeats": self.repeats,
            "tree": self.tree_mode,
            "levels": [vars(s) for s in self.levels],
            # wall-clock is the one non-deterministic field; it never enters the CSV
            "wall_ms": self.wall_ms,
            "envelope": self.envelope,
        }


def write_report(report: EvalReport, csv_path: str) -> None:
    """The report's CSV at ``csv_path`` and its JSON next to it."""
    with open_output(csv_path) as fh:
        fh.write(report.csv_text())
    write_json(report.json_dict(), sidecar_path(csv_path, ".json"))


# ---------------------------------------------------------------------------
# the harness


def usable_cpus() -> int:
    """W: the CPUs this process may run on, or 1 where forking is not allowed."""
    # forking a process with other threads alive can deadlock the child
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# the (table, tree, sensitivity, visit order) of the sweep a forked worker
# serves, set by the pool's initializer: the fork hands it over unpickled
_sweep: Optional[tuple] = None


def _serve(sweep: tuple) -> None:
    global _sweep
    _sweep = sweep


def _run_job(job: tuple, sweep: Optional[tuple] = None) -> tuple:
    """(level scores, wall_ms, what the release states, tree release?) of one
    (budget, mechanism, seed) job of ``sweep``, or of the sweep this worker
    serves; the release itself never crosses a pipe."""
    budget, name, seed = job
    table, tree, sens, order = sweep or _sweep
    start = time.perf_counter()
    levels, rel = run_mechanism(name, table, tree, budget, sens, order, seed)
    wall_ms = (time.perf_counter() - start) * 1000.0
    meta = rel.metadata()
    return (level_scores(tree, levels), wall_ms, {k: meta[k] for k in _STATED},
            bool(rel.tree.levels[0]))


def run_experiment(
    table: TripTable,
    mechanisms: Sequence[str] = tuple(MECHANISMS),
    epsilons: Sequence[float] = (1.0,),
    delta: float = 1e-8,
    repeats: int = 10,
    seed: int = 0,
    order: str = "ascending",
    mode: str = "destination",
    sens: SensitivityModel = SensitivityModel(),
    beta: float = 0.01,
) -> List[EvalReport]:
    """Run the full (mechanism x epsilon) grid; one EvalReport per cell.

    Repeat r of every cell uses the seed derived from (seed, r), so a per-seed
    comparison across mechanisms or epsilons is paired. A report states the
    rho, epsilon, delta, visit order, privacy mode and sensitivity its
    releases state in their sidecars. A report of tree releases (with a root
    row) carries the theoretical per-level error envelope at failure
    probability ``beta``. ``wall_ms`` has one time per repeat, of its
    ``run_mechanism`` call: the release and its roll-up, not the scoring.
    Every mechanism name, budget and ``beta`` is checked before any job runs.

    Each repeat of each cell is one job. With W the usable CPUs, the jobs are
    mapped over a pool of min(W, jobs) forked workers, which take one job at
    a time while this process waits, or run here when that is 1. A job's
    error is raised once the jobs in flight finish; a worker that dies raises
    ``BrokenProcessPool``, a RuntimeError. If a fork fails (say, at a process
    limit), the workers already forked are stopped and every job runs here.
    Each release runs on one CPU.
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if not mechanisms or not epsilons:
        raise ConfigError("the grid needs at least one mechanism and one epsilon")
    for name in mechanisms:
        _mechanism(name)
    tree = build_tree(table, mode)
    repeat_seeds = [derive_seed(seed, "repeat", r) for r in range(repeats)]
    cells = []
    for eps in epsilons:
        budget = PrivacyBudget.from_eps_delta(eps, delta)
        envelope = [theoretical_error_envelope(d, tree, budget, sens, beta)
                    for d in range(tree.depth + 1)]
        cells += [(budget, envelope, m) for m in mechanisms]
    jobs = [(budget, m, s) for budget, _, m in cells for s in repeat_seeds]
    sweep = (table, tree, sens, order)

    outcomes = None
    workers = min(usable_cpus(), len(jobs))
    if workers > 1:
        # loaded only here, so a run that forks no pool never imports them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # named, since the default start method is not fork everywhere
        fork = multiprocessing.get_context("fork")
        before = set(multiprocessing.active_children())
        with ProcessPoolExecutor(workers, mp_context=fork, initializer=_serve,
                                 initargs=(sweep,)) as pool:
            try:
                results = pool.map(_run_job, jobs)
            except OSError:
                # a fork failed; the pool would leave the workers it forked
                # waiting for jobs, and this process hanging at exit
                for child in set(multiprocessing.active_children()) - before:
                    child.kill()
                    child.join()
            else:
                outcomes = list(results)
    if outcomes is None:
        outcomes = list(map(_run_job, jobs, repeat(sweep)))

    reports: List[EvalReport] = []
    for cell, (_, envelope, mechanism) in enumerate(cells):
        scores, wall_ms, statements, tree_releases = zip(
            *outcomes[cell * repeats:(cell + 1) * repeats])
        levels = [LevelStats(d, *_spread([s[d] for s in scores])) for d in range(tree.depth + 1)]
        reports.append(EvalReport(
            mechanism=mechanism, **statements[0], seed=seed, repeats=repeats, tree_mode=mode,
            levels=levels, wall_ms=list(wall_ms), envelope=envelope if tree_releases[0] else None,
        ))
    return reports
