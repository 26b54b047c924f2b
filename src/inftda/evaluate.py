"""The mechanism table, per-level accuracy metrics and the benchmark harness.

``MECHANISMS`` is the one place a mechanism is defined; the CLI and the harness
run every mechanism through ``run_release``, which returns a ``DPRelease``.

Mechanisms are compared level by level on two quantities: the maximum absolute
error over the union of true and released supports (keys absent from both read
as zero and contribute nothing), and the false discovery rate, the percentage
of released-positive nodes whose true count is zero.

``run_experiment`` runs a grid of (mechanism, epsilon) cells, each repeated
with paired per-repeat seeds (repeat r uses the same derived seed for every
mechanism, so per-seed comparisons are honest). Repeats can run in a process
pool; keyed substreams make the result identical for any worker count. Reports
serialize to a CSV (one row per level, no timing columns, byte-stable for a
fixed seed) plus a JSON envelope that additionally carries wall-clock numbers.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from .baselines import (
    UNIVERSE_CAP,
    aggregate_up,
    stability_histogram,
    tda_l2,
    vanilla_gauss,
)
from .dataio import sidecar_path
from .dpcore import PrivacyBudget, SensitivityModel, derive_seed
from .errors import ConfigError
from .hierarchy import HierTree, Key, TripTable, build_tree
from .topdown import DPRelease, ReleaseConfig, release, theoretical_error_envelope

__all__ = [
    "MECHANISMS",
    "LevelStats",
    "EvalReport",
    "max_abs_error_per_level",
    "false_discovery_rate",
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


def _positive_node_counts(released_levels: Sequence[Dict[Key, int]], depth: int) -> List[int]:
    return [
        sum(1 for v in level.values() if v > 0) for level in released_levels
    ] + [0] * (depth + 1 - len(released_levels))


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
    if MECHANISMS[mechanism].leaf_only:
        return aggregate_up(rel.tree.levels[-1], table.origin, table.dest, tree.mode), wall_ms
    return rel.tree.levels, wall_ms


def _repeat_cell(args):
    # module-level so a process pool can pickle it; args are run_mechanism's
    tree = args[2]
    levels, wall_ms = run_mechanism(*args)
    errors = max_abs_error_per_level(tree, levels)
    fdrs = [false_discovery_rate(tree, levels, depth) for depth in range(tree.depth + 1)]
    nodes = _positive_node_counts(levels, tree.depth)
    return errors, fdrs, nodes, wall_ms


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


def _spread(values: list) -> tuple:
    """(min, mean, max) of one statistic over the repeats."""
    return min(values), sum(values) / len(values), max(values)


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


def write_report(report: EvalReport, csv_path: str, json_path: Optional[str] = None) -> None:
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.csv_text())
    with open(json_path or sidecar_path(csv_path, ".json"), "w", encoding="utf-8") as fh:
        json.dump(report.json_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the harness


def run_experiment(
    table: TripTable,
    mechanisms: Sequence[str],
    epsilons: Sequence[float],
    delta: float = 1e-8,
    repeats: int = 10,
    seed: int = 0,
    order: str = "ascending",
    mode: str = "destination",
    sens: SensitivityModel = SensitivityModel(),
    workers: int = 1,
    universe_cap: int = UNIVERSE_CAP,
    branching: Optional[int] = None,
    beta: float = 0.01,
) -> List[EvalReport]:
    """Run the full (mechanism x epsilon) grid; one EvalReport per cell.

    Repeat r of every cell uses the seed derived from (seed, r), so a per-seed
    comparison across mechanisms or epsilons is paired. ``branching`` adds the
    theoretical per-level error envelope to the JSON payload (regular synthetic
    trees only).
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if branching is not None and (branching < 2 or not 0.0 < beta < 1.0):
        raise ConfigError(
            f"the envelope needs branching >= 2 and beta in (0, 1), got {branching}, {beta}"
        )
    tree = build_tree(table, mode)
    repeat_seeds = [derive_seed(seed, "repeat", r) for r in range(repeats)]
    reports: List[EvalReport] = []
    for eps in epsilons:
        budget = PrivacyBudget.from_eps_delta(eps, delta)
        for mechanism in mechanisms:
            tasks = [
                (mechanism, table, tree, budget, sens, order, s, universe_cap)
                for s in repeat_seeds
            ]
            if workers == 1 or repeats == 1:
                outcomes = [_repeat_cell(t) for t in tasks]
            else:
                with ProcessPoolExecutor(max_workers=min(workers, repeats)) as pool:
                    outcomes = list(pool.map(_repeat_cell, tasks))
            levels = [
                LevelStats(depth, *_spread([o[0][depth] for o in outcomes]),
                           *_spread([o[1][depth] for o in outcomes]),
                           *_spread([o[2][depth] for o in outcomes]))
                for depth in range(tree.depth + 1)
            ]
            envelope = None
            entry = MECHANISMS[mechanism]
            if branching is not None and not entry.leaf_only:
                envelope = [
                    theoretical_error_envelope(d, branching, tree.depth, budget, sens, beta)
                    for d in range(tree.depth + 1)
                ]
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
                    wall_ms=[o[3] for o in outcomes],
                    envelope=envelope,
                )
            )
    return reports
