"""Baseline mechanisms the top-down release is measured against.

Two leaf-level mechanisms (flat Gaussian over the whole universe, and a
stability histogram over the populated cells only) and one tree mechanism
(the same top-down descent with a Euclidean projection instead of the
Chebyshev solver). The leaf mechanisms return their released leaf map;
``hierarchy.aggregate_leaf_map`` rolls it into per-depth maps so all
mechanisms are comparable level by level. The Euclidean solve runs on
plain-Python floats and is bit-identical to the frozen oracle in
``tests/l2_oracle.py`` wherever floats hold its integers exactly (up to 2**53);
past that it runs in exact integer arithmetic, so every release keeps its sums.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
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
from .hierarchy import Key, TripTable
from .intopt import solve_runs
from .topdown import DPRelease, HierTree, ReleaseConfig, release

__all__ = [
    "UNIVERSE_CAP",
    "vanilla_gauss",
    "stability_histogram",
    "tda_l2",
]

UNIVERSE_CAP = 10_000_000

# every integer of at most this magnitude is a float exactly
_FLOAT_EXACT = 2**53


def vanilla_gauss(
    table: TripTable,
    budget: PrivacyBudget,
    sens: SensitivityModel = SensitivityModel(),
    seed: int = 0,
) -> Dict[Key, int]:
    """Discrete Gaussian noise on every leaf cell of the full O/D universe.

    One shot at full budget: variance GS2^2 / (2 rho) per cell. Negative
    outputs are kept; the release size equals the universe size, which is why
    a universe above ``UNIVERSE_CAP`` cells is refused.
    """
    universe = table.universe_size
    if universe > UNIVERSE_CAP:
        raise ConfigError(
            f"universe has {universe} cells, above the cap {UNIVERSE_CAP}; "
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


def _project_and_round_exactly(x: Sequence[int], total: int) -> List[int]:
    """``_round_preserving_sum(_project_to_simplex(x, total), total)`` in exact
    integer arithmetic: with k the support size and tau = num / k, each
    projected value is max(v * k - num, 0) / k."""
    u = sorted(x, reverse=True)
    sums = list(accumulate(u))
    k = sum(j * a > s - total for j, (a, s) in enumerate(zip(u, sums), 1))
    num = sums[k - 1] - total
    scaled = [max(v * k - num, 0) for v in x]
    floors = [v // k for v in scaled]
    by_fraction = sorted(range(len(x)), key=lambda i: scaled[i] % k, reverse=True)
    for i in by_fraction[:total - sum(floors)]:
        floors[i] += 1
    return floors


def _project_and_round(x: Sequence[int], total: int) -> List[int]:
    """Project ``x`` onto {y >= 0, sum = total} and round, keeping the sum.

    In floats, in the same order of operations as the solve as first written
    (frozen in ``tests/l2_oracle.py``), so the outputs are bit-identical, while
    every value, the total and every partial sum the projection forms is an
    integer of at most 2**53, which a float holds exactly. Past that, or where
    the float rounding loses the sum anyway (it can near 2**53), the solve
    runs in exact arithmetic.
    """
    if total == 0:
        return [0] * len(x)
    sums = list(accumulate(sorted(x, reverse=True)))
    if max(max(sums), total) <= _FLOAT_EXACT and min(min(x), min(sums) - total) >= -_FLOAT_EXACT:
        values = _round_preserving_sum(_project_to_simplex([float(v) for v in x], total), total)
        if sum(values) == total:
            return values
    return _project_and_round_exactly(x, total)


def _euclidean_solver(noisy: Sequence[int], sizes: Sequence[int], totals: Sequence[int],
                      order: str, rng) -> List[int]:
    """Project each segment of ``noisy`` (``sizes[i]`` children of a parent
    with total ``totals[i]``) onto {y >= 0, sum = total} and round, keeping
    the sum; returns the segments' values concatenated. Reads no order and no rng.

    ``intopt.solve_runs`` walks the level: a lone child takes the total, and a
    run of pairs takes one pass in which (a, b) with total c becomes (y, c - y),
    y = clamp((a - b + c + 1) // 2, 0, c). The projection of (a, b) is
    clamp((a - b + c) / 2, 0, c) and c minus that; where a - b + c is odd both
    have fraction 1/2, and the tie goes to the lower index, so the first child
    rounds up, as the floor of half of one more does. Where the projection
    clips, both clamps are whole and agree. Larger segments take
    ``_project_and_round``.
    """
    return solve_runs(noisy, sizes, totals, lambda run: repeat(1),
                      _project_and_round)


def tda_l2(tree: HierTree, config: ReleaseConfig) -> DPRelease:
    """Top-down release with a Euclidean projection and rounding per parent.

    Identical descent and noise to the main mechanism; only the solve
    differs: project each parent's noisy children onto the real simplex
    {y >= 0, sum = parent}, floor, and distribute the remainder to the largest
    fractional parts. It reads no visit order, so the release states none.
    Two children take a closed form with the same result, exact in integers.
    """
    return release(tree, config, mechanism="tda-l2", _solver=_euclidean_solver)
