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
mechanism, so per-seed comparisons are honest). The repeats of the whole grid
are spread over every usable CPU by ``parallel``, the same fork scheduler the
release uses; keyed substreams make the result identical for any CPU count.
Reports serialize to a CSV (one row per level, no timing columns, byte-stable
for a fixed seed) plus a JSON envelope that additionally carries wall-clock
numbers.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import parallel
from .baselines import (
    UNIVERSE_CAP,
    aggregate_up,
    stability_histogram,
    tda_l2,
    vanilla_gauss,
)
from .dataio import open_output, sidecar_path
from .dpcore import PrivacyBudget, SensitivityModel, derive_seed
from .errors import ConfigError, DataError
from .hierarchy import HierTree, Key, TripTable, build_tree
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
    """``run(table, tree, config, universe_cap)`` gives a DPRelease, or the leaf
    map of a ``leaf_only`` mechanism (which never reads ``tree``); ``order`` is
    the visit order the mechanism forces, if any."""

    run: Callable
    leaf_only: bool = False
    order: Optional[str] = None


# Entries call each mechanism by its module-level name when they run, never
# through a function object stored here, so a rebound name (a tracer, a test
# double) sees every call.
MECHANISMS: Dict[str, Mechanism] = {
    "inftda": Mechanism(lambda table, tree, cfg, cap: release(tree, cfg)),
    "tda-l2": Mechanism(lambda table, tree, cfg, cap: tda_l2(tree, cfg)),
    "tda-linf-random": Mechanism(
        lambda table, tree, cfg, cap: release(tree, cfg, mechanism="tda-linf-random"),
        order="random",
    ),
    "vanilla-gauss": Mechanism(
        lambda table, tree, cfg, cap: vanilla_gauss(
            table, cfg.budget, cfg.sensitivity, cfg.seed, cap),
        leaf_only=True,
    ),
    "sh": Mechanism(
        lambda table, tree, cfg, cap: stability_histogram(
            table, cfg.budget, cfg.sensitivity, cfg.seed),
        leaf_only=True,
    ),
}


def run_release(
    name: str,
    table: TripTable,
    mode: str,
    tree: Optional[HierTree],
    config: ReleaseConfig,
    universe_cap: int = UNIVERSE_CAP,
) -> DPRelease:
    """Run mechanism ``name`` once on the true ``tree`` (in ``mode``).

    ``tree`` may be None for a leaf-only mechanism. Its leaf map comes back,
    not rolled up, as a release holding the leaf depth alone.
    """
    if name not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {name!r}; pick one of {tuple(MECHANISMS)}")
    entry = MECHANISMS[name]
    if entry.order is not None:
        config = replace(config, order=entry.order)
    start = time.perf_counter()
    out = entry.run(table, tree, config, universe_cap)
    if not entry.leaf_only:
        return out
    wall_ms = (time.perf_counter() - start) * 1000.0
    depth = 2 * table.origin.levels
    levels: List[Dict[Key, int]] = [{} for _ in range(depth)] + [out]
    per_level = [{"depth": depth, "node_count": len(out), "wall_ms": wall_ms}]
    return DPRelease(HierTree(mode, table.origin, table.dest, levels), config, name, per_level)


# ---------------------------------------------------------------------------
# metrics


def max_abs_error_per_level(
    true_tree: HierTree, released_levels: Sequence[Dict[Key, int]]
) -> List[int]:
    """Max |true - released| per depth, over the union of both supports."""
    out: List[int] = []
    for depth in range(true_tree.depth + 1):
        t = true_tree.levels[depth]
        r = released_levels[depth] if depth < len(released_levels) else {}
        keys = t.keys() | r.keys()
        out.append(max((abs(t.get(k, 0) - r.get(k, 0)) for k in keys), default=0))
    return out


def false_discovery_rate(
    true_tree: HierTree, released_levels: Sequence[Dict[Key, int]], depth: int
) -> float:
    """Percentage of released-positive nodes at ``depth`` with true count zero.

    Zero when nothing positive is released at that depth.
    """
    r = released_levels[depth] if depth < len(released_levels) else {}
    positives = [k for k, v in r.items() if v > 0]
    if not positives:
        return 0.0
    t = true_tree.levels[depth]
    false_pos = sum(1 for k in positives if t.get(k, 0) == 0)
    return 100.0 * false_pos / len(positives)


def released_levels(
    stored: Dict[int, Dict[Key, int]], truth: HierTree, mechanism: Optional[str] = None
) -> List[Dict[Key, int]]:
    """One released map per depth of ``truth`` from ``stored`` ({depth: map}),
    rolled up from the leaves if ``mechanism`` is leaf-only or, unnamed, if the
    root row is missing (tree releases always store it). A depth outside
    ``truth`` is a DataError."""
    if stored and not 0 <= min(stored) <= max(stored) <= truth.depth:
        raise DataError(
            f"release holds depths {min(stored)}..{max(stored)} "
            f"but the dataset tree spans 0..{truth.depth}"
        )
    if mechanism is None:
        leaf_only = 0 not in stored
    else:
        leaf_only = mechanism in MECHANISMS and MECHANISMS[mechanism].leaf_only
    if leaf_only:
        return aggregate_up(stored.get(truth.depth, {}), truth.origin, truth.dest, truth.mode)
    return [stored.get(d, {}) for d in range(truth.depth + 1)]


def level_scores(
    truth: HierTree, released: Sequence[Dict[Key, int]]
) -> List[Tuple[int, float, int]]:
    """(max abs error, false discovery rate, positive released nodes) at each
    depth of ``truth``; ``released`` holds one map per depth."""
    errors = max_abs_error_per_level(truth, released)
    return [
        (errors[d], false_discovery_rate(truth, released, d),
         sum(1 for v in released[d].values() if v > 0))
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
    universe_cap: int = UNIVERSE_CAP,
):
    """Run one mechanism once; returns (per-depth released maps, wall_ms).

    Leaf-only output is rolled up into every depth after the clock stops.
    """
    config = ReleaseConfig(budget=budget, sensitivity=sens, order=order, seed=seed)
    start = time.perf_counter()
    rel = run_release(mechanism, table, tree.mode, tree, config, universe_cap)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return released_levels(dict(enumerate(rel.tree.levels)), tree, mechanism), wall_ms


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
    return [x for v in zip(*scores) for x in (min(v), sum(v) / len(v), max(v))]


CSV_HEADER = (
    "level,err_min,err_mean,err_max,fdr_min,fdr_mean,fdr_max,"
    "nodes_min,nodes_mean,nodes_max"
)


@dataclass
class EvalReport:
    """Aggregated per-level statistics for one (mechanism, budget) cell."""

    mechanism: str
    rho: float
    epsilon: Optional[float]
    delta: Optional[float]
    order: str
    seed: int
    repeats: int
    tree_mode: str
    levels: List[LevelStats]
    wall_ms: List[float] = field(default_factory=list)
    envelope: Optional[List[float]] = None

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for s in self.levels:
            lines.append(
                f"{s.level},{s.err_min},{s.err_mean:.6f},{s.err_max},"
                f"{s.fdr_min:.6f},{s.fdr_mean:.6f},{s.fdr_max:.6f},"
                f"{s.nodes_min},{s.nodes_mean:.6f},{s.nodes_max}"
            )
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        return {
            "schema": "od-release-report/1",
            "mechanism": self.mechanism,
            "rho": self.rho,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "order": self.order,
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
    with open_output(sidecar_path(csv_path, ".json")) as fh:
        json.dump(report.json_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the harness


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
    universe_cap: int = UNIVERSE_CAP,
    branching: Optional[int] = None,
    beta: float = 0.01,
) -> List[EvalReport]:
    """Run the full (mechanism x epsilon) grid; one EvalReport per cell.

    Repeat r of every cell uses the seed derived from (seed, r), so a per-seed
    comparison across mechanisms or epsilons is paired. ``branching`` adds the
    theoretical per-level error envelope to the JSON payload of each tree
    mechanism (regular synthetic trees only). Every budget and envelope is
    computed before any job runs, so a bad parameter fails first.

    Each repeat of each cell is one job. The jobs are dealt round-robin into
    min(W, jobs) groups for ``parallel.run_split``, with W the usable CPUs; a
    single group runs here, and then each release may split itself instead.
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    tree = build_tree(table, mode)
    repeat_seeds = [derive_seed(seed, "repeat", r) for r in range(repeats)]
    cells = []
    for eps in epsilons:
        budget = PrivacyBudget.from_eps_delta(eps, delta)
        envelope = None if branching is None else [
            theoretical_error_envelope(d, branching, tree.depth, budget, sens, beta)
            for d in range(tree.depth + 1)
        ]
        cells += [(budget, envelope, m) for m in mechanisms]
    jobs = list(enumerate((budget, m, s) for budget, _, m in cells for s in repeat_seeds))

    def run_jobs(group):
        # (job index, (level scores, wall_ms)) for each job
        out = []
        for index, (budget, mechanism, s) in group:
            levels, wall_ms = run_mechanism(
                mechanism, table, tree, budget, sens, order, s, universe_cap
            )
            out.append((index, (level_scores(tree, levels), wall_ms)))
        return out

    outcomes: Dict[int, tuple] = {}
    count = min(parallel.usable_cpus(), len(jobs))
    parallel.run_split([jobs[g::count] for g in range(count)], run_jobs, outcomes.update)

    reports: List[EvalReport] = []
    for cell, (budget, envelope, mechanism) in enumerate(cells):
        runs = [outcomes[i] for i in range(cell * repeats, (cell + 1) * repeats)]
        levels = [LevelStats(d, *_spread([s[d] for s, _ in runs])) for d in range(tree.depth + 1)]
        entry = MECHANISMS[mechanism]
        reports.append(
            EvalReport(
                mechanism=mechanism,
                rho=budget.rho,
                epsilon=budget.epsilon,
                delta=budget.delta,
                order=entry.order or order,
                seed=seed,
                repeats=repeats,
                tree_mode=mode,
                levels=levels,
                wall_ms=[wall_ms for _, wall_ms in runs],
                envelope=None if entry.leaf_only else envelope,
            )
        )
    return reports
