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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .dpcore import (
    RATIONAL_LIMIT,
    PrivacyBudget,
    SensitivityModel,
    per_level_sigma2,
    sample_discrete_gaussian,
    substream,
)
from .errors import ConfigError
from .hierarchy import ROOT_AREA, HierTree, Key
from .intopt import ORDERS, intopt_fast

__all__ = [
    "ReleaseConfig",
    "DPRelease",
    "release",
    "export_table",
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
    positive attributes only.
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
            "order": self.config.order,
            "seed": self.config.seed,
            "depth": self.tree.depth,
            "tree": self.tree.mode,
            "per_level": self.per_level,
        }


def _chebyshev_solver(noisy: Sequence[int], total: int, order: str, rng) -> Sequence[int]:
    return intopt_fast(noisy, total, order, rng).values


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
    sigma2 = Fraction(per_level_sigma2(config.budget, sens, depth_total)).limit_denominator(
        RATIONAL_LIMIT
    )

    per_level: List[Dict[str, object]] = []
    levels: List[Dict[Key, int]] = [dict() for _ in range(depth_total + 1)]
    root_key = (ROOT_AREA, ROOT_AREA)

    start = time.perf_counter()
    if sens.privacy == "unbounded":
        root_sigma2 = Fraction(depth_total / config.budget.rho).limit_denominator(RATIONAL_LIMIT)
        noise = sample_discrete_gaussian(root_sigma2, substream(config.seed, "root"))
        root_value = max(0, tree.n + noise)
    else:
        root_value = tree.n
    levels[0][root_key] = root_value
    per_level.append(
        {"depth": 0, "node_count": 1, "wall_ms": (time.perf_counter() - start) * 1000.0}
    )

    for depth in range(1, depth_total + 1):
        start = time.perf_counter()
        true_map = tree.level_map(depth)
        current: Dict[Key, int] = {}
        parents = levels[depth - 1]
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
        levels[depth] = current
        per_level.append(
            {
                "depth": depth,
                "node_count": len(current),
                "wall_ms": (time.perf_counter() - start) * 1000.0,
            }
        )

    released = HierTree(tree.mode, tree.origin, tree.dest, levels)
    return DPRelease(tree=released, config=config, mechanism=mechanism, per_level=per_level)


def export_table(source, level) -> List[Tuple[str, str, int]]:
    """Stored rows (origin, destination, value) at one depth, sorted.

    ``source`` is a DPRelease or a HierTree; ``level`` is a depth or the
    string "leaves".
    """
    tree = source.tree if isinstance(source, DPRelease) else source
    depth = tree.depth if level == "leaves" else int(level)
    return sorted((o, d, v) for (o, d), v in tree.level_map(depth).items())


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
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > depth:
        raise ValueError(f"level {level} beyond tree depth {depth}")
    if branching < 2:
        raise ValueError("branching factor must be >= 2")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if level == 0:
        return 0.0
    sigma2 = per_level_sigma2(budget, sens, depth)
    log_term = math.log(2.0 * branching * level / beta) + level * math.log(branching)
    return 2.0 * level * math.sqrt(2.0 * sigma2 * log_term)
