"""Top-down differentially private release of a hierarchical O/D tree.

The engine walks the true tree from the root down. Each released parent's full
child universe (from the hierarchies, so zero children are noised too) gets
exact integer Gaussian noise, and a solver turns each noisy vector into
non-negative integers summing to the parent's released attribute. Only
positive children survive to be expanded, so sparsity propagates and the huge
empty part of the universe is never materialized.

Privacy: every level is one GS2-sensitivity vector query answered with
discrete Gaussian noise. A level above the leaves sums many pairs, so all m
of one user's trips can land in one node, distinct or not: every level is
charged GS2^2 = 2 m^2 (bounded) or m^2 (unbounded), the
``SensitivityModel.level_gs2_squared``. In bounded mode rho splits into T
equal shares, one per level, at variance sigma2 = GS2^2 * T / (2 rho). In
unbounded mode the total n is itself private, so the root (sensitivity m)
takes a share too: rho splits into T + 1 shares, and the levels and the root,
estimated first and clamped at zero, all use sigma2 = m^2 * (T + 1) / (2 rho).
Either way the composition consumes exactly rho.

Noise is keyed, never drawn in scheduling order. Down to the block frontier,
the first depth whose released level holds at least ``BLOCK_NODES`` nodes,
each parent draws from its own substream keyed by (seed, depth, node key).
Each frontier node roots a block: one substream keyed by (seed, "block",
frontier depth, node key) serves every parent below it. Per stream and
depth, the noise of all the parents' children comes first, in sorted parent
order and one sampler call, then one solver call over them all (in random
visit order it takes its shuffles from the stream, parent by parent).
Choosing the frontier reads released values only, so it is post-processing.

Once a node's released total is fixed, its subtree depends on nothing else,
so the blocks are independent jobs. With W usable CPUs (the process's CPU
affinity, from ``parallel.usable_cpus``), the blocks are dealt into
min(W, blocks) groups of near-equal released total and handed to
``parallel.run_split``: forked workers each expand one group, block by block,
to the leaves and pipe their per-depth maps back, while this process expands
the lightest group and then merges the others in. With W = 1 (which
``parallel`` also reports when ``os.fork`` is missing, when another thread is
alive, and inside another split, such as a sweep worker), or when the true
tree has fewer than ``PARALLEL_MIN_NODES`` nodes, this process expands the
same blocks itself. So the output is identical for every W; only dict
insertion order within a level differs, and nothing reads it (writers and
digests sort). Below the frontier, a depth's ``wall_ms`` is its time summed
over all blocks and processes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import parallel
from .dpcore import (
    PrivacyBudget,
    SensitivityModel,
    per_level_sigma2,
    sample_discrete_gaussian,
    substream,
)
from .errors import ConfigError
from .hierarchy import ROOT_AREA, HierTree, Key
from .intopt import ORDERS, intopt_fast, intopt_level  # noqa: F401 - perfbench traces intopt_fast

__all__ = [
    "ReleaseConfig",
    "DPRelease",
    "release",
    "theoretical_error_envelope",
]

# level solver, as ``intopt.intopt_level``: (noisy, sizes, totals, order, rng) -> values
Solver = Callable[[List[int], List[int], List[int], str, object], Sequence[int]]


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
    depth alone: no root row and one ``per_level`` row. The code that builds a
    release states what it is: a release that is not ``zcdp`` is (epsilon,
    delta)-DP only and states no rho, and one that is not ``ordered`` never
    read the configured visit order and states none.
    """

    tree: HierTree
    config: ReleaseConfig
    mechanism: str
    per_level: List[Dict[str, object]]
    zcdp: bool = True
    ordered: bool = True

    def metadata(self) -> Dict[str, object]:
        sens = self.config.sensitivity
        return {
            "mechanism": self.mechanism,
            "mode": sens.privacy,
            "rho": self.config.budget.rho if self.zcdp else None,
            "epsilon": self.config.budget.epsilon,
            "delta": self.config.budget.delta,
            "sensitivity": {"type": sens.privacy, "m": sens.m, "distinct": sens.distinct},
            "order": self.config.order if self.ordered else None,
            "seed": self.config.seed,
            "depth": self.tree.depth,
            "tree": self.tree.mode,
            "per_level": self.per_level,
        }


# Fewest true tree nodes (all depths) for which the split runs, from a bare
# fork, exit and reap against the serial cost per node (2-vCPU VM, Python
# 3.11, 21-47 MB process): a fork costs 1.0-2.4 ms, and serial release
# 2.7-3.9 us per node on trees of 2,047-2,704 nodes (whose blocks are small,
# so each call serves few parents) and 0.8-1.5 us from 8,191 nodes on, so
# two workers recover a fork from about 2 * 2.4 ms / 2.7 us = 1,800 nodes.
PARALLEL_MIN_NODES = 2_000

# The block frontier is the first depth whose released level holds at least
# this many nodes; each of them roots a block noised from one stream.
BLOCK_NODES = 64


def _balanced_groups(frontier: Dict[Key, int], count: int) -> List[Dict[Key, int]]:
    """Deal the blocks rooted at ``frontier`` into ``count`` groups of
    near-equal released total, lightest first: each block, largest total
    first, joins the lightest group. Only released values are read, so this
    is post-processing."""
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
    Euclidean baseline plugs in its own solver through ``_solver``, which reads
    no visit order, so that release is not ``ordered``.
    """
    solver = _solver or intopt_level
    depth_total = tree.depth
    sens = config.sensitivity
    sigma2 = per_level_sigma2(config.budget, sens, depth_total)

    levels: List[Dict[Key, int]] = [dict() for _ in range(depth_total + 1)]
    wall_ms = [0.0] * (depth_total + 1)
    root_key = (ROOT_AREA, ROOT_AREA)

    start = time.perf_counter()
    if sens.privacy == "unbounded":
        # the root's sensitivity m, squared, is the unbounded level charge
        noise = sample_discrete_gaussian(sigma2, substream(config.seed, "root"))
        root_value = max(0, tree.n + noise)
    else:
        root_value = tree.n
    levels[0][root_key] = root_value
    wall_ms[0] = (time.perf_counter() - start) * 1000.0

    def expand(parents: Dict[Key, int], depth: int, block=None) -> Dict[Key, int]:
        """The released children at ``depth`` of the positive ``parents``. The
        ``block`` stream serves them all, or each parent has its own stream;
        per stream, all the noise comes first, then one solve over it."""
        true_get = tree.levels[depth].get
        keys = [key for key in sorted(parents) if parents[key] > 0]
        units = [(keys, block)] if block is not None else [
            ([key], substream(config.seed, depth - 1, key[0], key[1])) for key in keys]
        current: Dict[Key, int] = {}
        for group, rng in units:
            universes = [tree.child_keys(key, depth - 1) for key in group]
            children = list(chain.from_iterable(universes))
            noise = sample_discrete_gaussian(sigma2, rng, size=len(children))
            noisy = list(map(add, map(true_get, children, repeat(0)), noise))
            values = solver(noisy, list(map(len, universes)), [parents[key] for key in group],
                            config.order, rng)
            current.update(compress(zip(children, values), values))  # the positive ones
        return current

    depth = 1
    while depth <= depth_total and len(levels[depth - 1]) < BLOCK_NODES:
        start = time.perf_counter()
        levels[depth] = expand(levels[depth - 1], depth)
        wall_ms[depth] = (time.perf_counter() - start) * 1000.0
        depth += 1
    first = depth

    def descend(blocks: Dict[Key, int]) -> List[Tuple[Dict[Key, int], float]]:
        # (released level, ms) for each depth from ``first`` to the leaves
        share = [{} for _ in range(first, depth_total + 1)]
        ms = [0.0] * len(share)
        for key in sorted(blocks):
            block = substream(config.seed, "block", first - 1, key[0], key[1])
            parents = {key: blocks[key]}
            for i, level in enumerate(share):
                start = time.perf_counter()
                parents = expand(parents, first + i, block)
                level.update(parents)
                ms[i] += (time.perf_counter() - start) * 1000.0
        return list(zip(share, ms))

    def merge(share: List[Tuple[Dict[Key, int], float]]) -> None:
        for depth, (level, ms) in enumerate(share, start=first):
            levels[depth].update(level)
            wall_ms[depth] += ms

    if first <= depth_total:
        frontier = levels[first - 1]
        big = sum(map(len, tree.levels)) >= PARALLEL_MIN_NODES
        workers = min(parallel.usable_cpus() if big else 1, len(frontier))
        parallel.run_split(_balanced_groups(frontier, workers), descend, merge)

    per_level = [
        {"depth": depth, "node_count": len(levels[depth]), "wall_ms": wall_ms[depth]}
        for depth in range(depth_total + 1)
    ]
    released = HierTree(tree.mode, tree.origin, tree.dest, levels)
    return DPRelease(tree=released, config=config, mechanism=mechanism, per_level=per_level,
                     ordered=_solver is None)


def theoretical_error_envelope(
    level: int,
    tree: HierTree,
    budget: PrivacyBudget,
    sens: SensitivityModel = SensitivityModel(),
    beta: float = 0.01,
) -> float:
    """High-probability ceiling on the depth-``level`` max absolute error of a
    top-down release of ``tree``, of any shape, in either privacy mode:

        (2 * level + u) * sqrt(2 * sigma2 * ln(2 * N / beta))

    sigma2 is the variance the release samples with (``per_level_sigma2``);
    u is 1 in unbounded mode (the noisy root), else 0; N = u plus, for each
    depth k = 1..level, the product of the origin and destination area counts
    at ``tree.component_levels(k)``. With probability at least 1 - beta every
    released attribute at the depth lies within this of the truth.

    Proof. Children of distinct parents are distinct keys, so at most N noise
    coordinates are drawn down to ``level``. A discrete Gaussian is
    sub-Gaussian (Canonne, Kamath & Steinke, NeurIPS 2020): P(|z| >= t) <=
    2 exp(-t^2 / (2 sigma2)), so by the union bound all of them lie below
    t = sqrt(2 sigma2 ln(2N / beta)) with probability at least 1 - beta. Then,
    with e_k the largest error at depth k:
    1. the unbounded root is n + z clamped at 0 and n >= 0, so e_0 <= u t;
    2. at an expanded parent released within e_{k-1} of its true total, some
       feasible integer point lies within e_{k-1} of the true children, so the
       Chebyshev optimum lies within t + e_{k-1} of the noisy vector, and
       within 2t + e_{k-1} of the truth;
    3. a parent that is not expanded was released as 0, so each of its true
       children, all released as 0, is at most e_{k-1}.
    So e_level <= (2 level + u) t, for the Chebyshev solve in any visit order.
    For ``tda-l2`` the same step bound holds for the exact Euclidean
    projection onto the simplex; its float rounding is not covered.
    """
    if not 0 <= level <= tree.depth:
        raise ConfigError(f"level {level} outside the tree depths 0..{tree.depth}")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta!r}")
    root = int(sens.privacy == "unbounded")
    if level + root == 0:
        return 0.0
    sigma2 = per_level_sigma2(budget, sens, tree.depth)
    coords = root + sum(
        len(tree.origin.areas(o)) * len(tree.dest.areas(d))
        for o, d in map(tree.component_levels, range(1, level + 1))
    )
    return (2 * level + root) * math.sqrt(2 * sigma2 * math.log(2 * coords / beta))
