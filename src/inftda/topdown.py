"""Top-down differentially private release of a hierarchical O/D tree.

The engine walks the true tree from the root down. Each released parent's full
child universe (from the hierarchies, so zero children are noised too) gets
exact integer Gaussian noise, and a per-parent solver turns the noisy vector
into non-negative integers summing to the parent's released attribute. Only
positive children survive to be expanded, so sparsity propagates and the huge
empty part of the universe is never materialized.

Privacy: every level is one GS2-sensitivity vector query answered with
discrete Gaussian noise at variance sigma2 = GS2^2 * T / (2 rho), costing
rho/T in zCDP; the T-level composition consumes exactly rho. In unbounded
mode the total n is itself private, so the root is estimated first with
variance T/rho (clamped at zero), adding m^2 * rho / (2T) on top.

Noise is drawn from per-parent substreams keyed by (seed, depth, node key), so
a release is bit-reproducible no matter how the per-parent work is scheduled.

Once a node's released total is fixed, its subtree depends on nothing else,
so the release splits into independent jobs. With W usable CPUs (the
process's CPU affinity, from ``parallel.usable_cpus``), it expands serially
from the root to the first depth whose released frontier holds at least W
nodes, deals that frontier into W groups of near-equal released total, and
hands them to ``parallel.run_split``: W-1 forked workers each expand one group
to the leaves and pipe their per-depth maps back, while this process expands
the lightest group and then merges the others in. The output is identical
for every W; only dict insertion order within a level differs, and nothing
reads it (writers and digests sort). After the split, a depth's ``wall_ms`` is
its time summed over all processes. The release stays serial when W is 1
(which ``parallel`` also reports when ``os.fork`` is missing, when another
thread is alive, and inside another split, such as a sweep worker) or when
the true tree has fewer than ``PARALLEL_MIN_NODES`` nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import parallel
from .dpcore import (
    PrivacyBudget,
    SensitivityModel,
    per_level_sigma2,
    sample_discrete_gaussian,
    snap_parameter,
    substream,
)
from .errors import ConfigError
from .hierarchy import ROOT_AREA, HierTree, Key
from .intopt import ORDERS, intopt_fast

__all__ = [
    "ReleaseConfig",
    "DPRelease",
    "release",
    "theoretical_error_envelope",
]

# per-parent solver: (noisy child vector, parent total, order, rng) -> child values
Solver = Callable[[Sequence[int], int, str, object], Sequence[int]]


@dataclass(frozen=True)
class ReleaseConfig:
    """Everything that determines a release besides the data itself."""

    budget: PrivacyBudget
    sensitivity: SensitivityModel = field(default_factory=SensitivityModel)
    order: str = "ascending"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.order not in ORDERS:
            raise ConfigError(f"order must be one of {ORDERS}, got {self.order!r}")


@dataclass
class DPRelease:
    """A released tree plus the configuration and bookkeeping that produced it.

    The root attribute is always materialized (it may be 0); depths >= 1 store
    positive attributes only. A leaf-only mechanism's release stores the leaf
    depth alone: no root row, one ``per_level`` row, and no visit order.
    """

    tree: HierTree
    config: ReleaseConfig
    mechanism: str
    per_level: List[Dict[str, object]]

    def metadata(self) -> Dict[str, object]:
        sens = self.config.sensitivity
        return {
            "mechanism": self.mechanism,
            "mode": sens.privacy,
            "rho": self.config.budget.rho,
            "epsilon": self.config.budget.epsilon,
            "delta": self.config.budget.delta,
            "sensitivity": {"type": sens.privacy, "m": sens.m, "distinct": sens.distinct},
            "order": self.config.order if self.tree.levels[0] else None,
            "seed": self.config.seed,
            "depth": self.tree.depth,
            "tree": self.tree.mode,
            "per_level": self.per_level,
        }


def _chebyshev_solver(noisy: Sequence[int], total: int, order: str, rng) -> Sequence[int]:
    return intopt_fast(noisy, total, order, rng).values


# Fewest true tree nodes (all depths) for which the split runs. Measured on a
# 2-vCPU VM, Python 3.11, in an 84 MB process: a bare fork, exit and reap
# costs 1.0 ms; serial release costs 2.6-3.6 us per true node; two workers
# lose at 511 nodes (1.8 ms serial, 2.3 ms split), break even near 1,300
# (random 2-level tree, 1,325 nodes: 3.8 ms either way) and win 1.3x at 2,047
# (complete binary, 5 levels per side) and 1.9x at 131,071.
PARALLEL_MIN_NODES = 2_000


def _balanced_groups(frontier: Dict[Key, int], count: int) -> List[Dict[Key, int]]:
    """Split ``frontier`` into ``count`` groups of near-equal released total,
    lightest first: each node, largest total first, joins the lightest group.
    Only released values are read, so this is post-processing."""
    groups: List[Dict[Key, int]] = [{} for _ in range(count)]
    loads = [0] * count
    for key in sorted(frontier, key=lambda k: (-frontier[k], k)):
        lightest = loads.index(min(loads))
        groups[lightest][key] = frontier[key]
        loads[lightest] += frontier[key]
    return [groups[i] for i in sorted(range(count), key=loads.__getitem__)]


def release(
    tree: HierTree,
    config: ReleaseConfig,
    mechanism: str = "inftda",
    _solver: Optional[Solver] = None,
) -> DPRelease:
    """Release ``tree`` top-down under ``config``.

    The default solver is the Chebyshev-optimal integer redistribution; the
    Euclidean baseline plugs in its own solver through ``_solver``.
    """
    solver = _solver or _chebyshev_solver
    depth_total = tree.depth
    sens = config.sensitivity
    sigma2 = snap_parameter(
        per_level_sigma2(config.budget, sens, depth_total), "the per-level sigma2", config.budget
    )

    levels: List[Dict[Key, int]] = [dict() for _ in range(depth_total + 1)]
    wall_ms = [0.0] * (depth_total + 1)
    root_key = (ROOT_AREA, ROOT_AREA)

    start = time.perf_counter()
    if sens.privacy == "unbounded":
        root_sigma2 = snap_parameter(
            depth_total / config.budget.rho, "the root sigma2", config.budget
        )
        noise = sample_discrete_gaussian(root_sigma2, substream(config.seed, "root"))
        root_value = max(0, tree.n + noise)
    else:
        root_value = tree.n
    levels[0][root_key] = root_value
    wall_ms[0] = (time.perf_counter() - start) * 1000.0

    def expand(parents: Dict[Key, int], depth: int) -> Dict[Key, int]:
        """The released children at ``depth`` of the positive ``parents``."""
        true_map = tree.level_map(depth)
        current: Dict[Key, int] = {}
        for parent_key in sorted(parents):
            total = parents[parent_key]
            if total <= 0:
                continue
            children = tree.child_keys(parent_key, depth - 1)
            rng = substream(config.seed, depth - 1, parent_key[0], parent_key[1])
            noise = sample_discrete_gaussian(sigma2, rng, size=len(children))
            noisy = [true_map.get(child, 0) + z for child, z in zip(children, noise)]
            values = solver(noisy, total, config.order, rng)
            for child, value in zip(children, values):
                if value > 0:
                    current[child] = int(value)
        return current

    workers = parallel.usable_cpus()
    split = workers > 1 and sum(map(len, tree.levels)) >= PARALLEL_MIN_NODES
    depth = 1
    while depth <= depth_total and not (split and len(levels[depth - 1]) >= workers):
        start = time.perf_counter()
        levels[depth] = expand(levels[depth - 1], depth)
        wall_ms[depth] = (time.perf_counter() - start) * 1000.0
        depth += 1
    first = depth

    def descend(parents: Dict[Key, int]) -> List[Tuple[Dict[Key, int], float]]:
        # (released level, ms) for each depth from ``first`` to the leaves
        out = []
        for depth in range(first, depth_total + 1):
            start = time.perf_counter()
            parents = expand(parents, depth)
            out.append((parents, (time.perf_counter() - start) * 1000.0))
        return out

    def merge(share: List[Tuple[Dict[Key, int], float]]) -> None:
        for depth, (level, ms) in enumerate(share, start=first):
            levels[depth].update(level)
            wall_ms[depth] += ms

    if first <= depth_total:
        parallel.run_split(_balanced_groups(levels[first - 1], workers), descend, merge)

    per_level = [
        {"depth": depth, "node_count": len(levels[depth]), "wall_ms": wall_ms[depth]}
        for depth in range(depth_total + 1)
    ]
    released = HierTree(tree.mode, tree.origin, tree.dest, levels)
    return DPRelease(tree=released, config=config, mechanism=mechanism, per_level=per_level)


def theoretical_error_envelope(
    level: int,
    branching: int,
    depth: int,
    budget: PrivacyBudget,
    sens: SensitivityModel = SensitivityModel(),
    beta: float = 0.01,
) -> float:
    """High-probability ceiling on the level-``level`` max absolute error.

    For a regular tree with branching factor b released over ``depth`` levels:

        2 * level * sqrt(2 * sigma2 * ln(2 * b * level * b**level / beta))

    with sigma2 the per-level noise variance. Each released attribute at the
    level stays within this of the truth with probability at least 1 - beta
    (union bound over the level and every noise coordinate feeding it). Only
    defined for regular trees; irregular trees have no single b.
    """
    if not 0 <= level <= depth:
        raise ConfigError(f"level {level} outside the tree depths 0..{depth}")
    if branching < 2:
        raise ConfigError(f"branching factor must be >= 2, got {branching!r}")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta!r}")
    if level == 0:
        return 0.0
    sigma2 = per_level_sigma2(budget, sens, depth)
    log_term = math.log(2.0 * branching * level / beta) + level * math.log(branching)
    return 2.0 * level * math.sqrt(2.0 * sigma2 * log_term)
