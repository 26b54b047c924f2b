"""Baseline mechanisms the top-down release is measured against.

Two leaf-level mechanisms (flat Gaussian over the whole universe, and a
stability histogram over the populated cells only) and one tree mechanism
(the same top-down descent with a Euclidean projection instead of the
Chebyshev solver). The leaf mechanisms return their released leaf map;
``aggregate_up`` rolls it into per-depth maps so all mechanisms are comparable
level by level. The Euclidean solve runs on plain-Python floats and is
bit-identical to the frozen oracle in ``tests/l2_oracle.py``.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, List, Sequence

from .dpcore import (
    PrivacyBudget,
    SensitivityModel,
    sample_discrete_gaussian,
    sample_discrete_laplace,
    snap_parameter,
    stability_threshold,
    substream,
)
from .errors import ConfigError
from .hierarchy import Key, PartitionHierarchy, TripTable, aggregate_leaf_map
from .topdown import DPRelease, HierTree, ReleaseConfig, release

__all__ = [
    "UNIVERSE_CAP",
    "vanilla_gauss",
    "stability_histogram",
    "tda_l2",
    "aggregate_up",
]

UNIVERSE_CAP = 10_000_000


def vanilla_gauss(
    table: TripTable,
    budget: PrivacyBudget,
    sens: SensitivityModel = SensitivityModel(),
    seed: int = 0,
    universe_cap: int = UNIVERSE_CAP,
) -> Dict[Key, int]:
    """Discrete Gaussian noise on every leaf cell of the full O/D universe.

    One shot at full budget: variance GS2^2 / (2 rho) per cell. Negative
    outputs are kept; the release size equals the universe size, which is why
    the universe is capped (default 1e7 cells).
    """
    universe = table.universe_size
    if universe > universe_cap:
        raise ConfigError(
            f"universe has {universe} cells, above the cap {universe_cap}; "
            f"this mechanism materializes every cell"
        )
    sigma2 = snap_parameter(sens.gs2_squared, 2.0 * budget.rho, "the sigma2", budget)
    noise = sample_discrete_gaussian(sigma2, substream(seed, "vanilla-gauss"), size=universe)
    cells = ((o, d) for o in table.origin.leaves for d in table.dest.leaves)
    counts = table.counts
    return {key: counts.get(key, 0) + z for key, z in zip(cells, noise)}


def stability_histogram(
    table: TripTable,
    budget: PrivacyBudget,
    sens: SensitivityModel = SensitivityModel(),
    seed: int = 0,
) -> Dict[Key, int]:
    """Noise the populated cells only, then drop everything under a threshold.

    Integer Laplace noise at scale 2/eps on each positive count; a noisy count
    survives only if it reaches 1 + 2*ln(2/delta)/eps. Cells with true count
    zero are never touched, so the output contains no false positives, at the
    price of suppressing small true counts. Requires an (eps, delta) budget
    and the bounded, m=1 sensitivity model its threshold is calibrated for.
    """
    if budget.epsilon is None or budget.delta is None:
        raise ConfigError("stability histogram needs an (epsilon, delta) budget")
    if sens.privacy != "bounded" or sens.m != 1:
        raise ConfigError("stability histogram is calibrated for bounded privacy with m=1")
    threshold = stability_threshold(budget.epsilon, budget.delta)
    scale = snap_parameter(2, budget.epsilon, "the Laplace scale", budget)
    keys = sorted(table.counts)
    noise = sample_discrete_laplace(scale, substream(seed, "stability-histogram"), size=len(keys))
    values: Dict[Key, int] = {}
    for key, z in zip(keys, noise):
        noisy = table.counts[key] + z
        if noisy >= threshold:
            values[key] = noisy
    return values


def _project_to_simplex(x: Sequence[float], total: int) -> List[float]:
    """Euclidean projection onto {y >= 0, sum(y) = total}."""
    if total == 0:
        return [0.0] * len(x)
    u = sorted(x, reverse=True)
    shifted = [(c - total) / k for k, c in enumerate(accumulate(u), 1)]
    # the count of u > shifted, not the last index where it holds
    tau = shifted[sum(a > s for a, s in zip(u, shifted)) - 1]
    return [max(v - tau, 0.0) for v in x]


def _round_preserving_sum(y: Sequence[float], total: int) -> List[int]:
    # floor everything, then hand the remainder to the largest fractional
    # parts; ties break by ascending index (a stable sort keeps it under reverse)
    floors = [math.floor(v) for v in y]
    remainder = total - sum(floors)
    if remainder:
        by_fraction = sorted(range(len(y)), key=lambda i: y[i] - floors[i], reverse=True)
        for i in by_fraction[:remainder]:
            floors[i] += 1
    return floors


def _euclidean_solver(noisy: Sequence[int], total: int, order: str, rng) -> Sequence[int]:
    """Project ``noisy`` onto {y >= 0, sum = total} and round, keeping the sum.

    Plain-Python floats, in the same order of operations as the solve as first
    written (frozen in ``tests/l2_oracle.py``), so every output is bit-identical.
    """
    if len(noisy) == 2:
        # clamp((a - b + total) / 2, 0, total); the index tie-break rounds a half up
        first = min(max(-((noisy[1] - noisy[0] - total) // 2), 0), total)
        return [first, total - first]
    return _round_preserving_sum(_project_to_simplex([float(v) for v in noisy], total), total)


def tda_l2(tree: HierTree, config: ReleaseConfig) -> DPRelease:
    """Top-down release with per-parent Euclidean projection and rounding.

    Identical descent and noise to the main mechanism; only the per-parent
    solve differs: project the noisy children onto the real simplex
    {y >= 0, sum = parent}, floor, and distribute the remainder to the largest
    fractional parts. It reads no visit order, so the release states none.
    Two children take a closed form with the same result, exact in integers.
    """
    return release(tree, config, mechanism="tda-l2", _solver=_euclidean_solver)


def aggregate_up(
    leaf_values: Dict[Key, int],
    origin: PartitionHierarchy,
    dest: PartitionHierarchy,
    mode: str = "destination",
) -> List[Dict[Key, int]]:
    """Roll a leaf-level release up into per-depth maps (depth 0..2g).

    Negative leaf values participate; aggregates canceling to exactly zero are
    dropped (absent keys read as zero everywhere).
    """
    return aggregate_leaf_map(leaf_values, origin, dest, mode)
