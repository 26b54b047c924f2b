"""Synthetic partition hierarchies and O/D flows for benchmarking.

Two partition shapes: "binary" splits every area in two for a fixed number of
levels (deterministic), "random" splits every area into a uniformly drawn
number of children. Flows are heavy-tailed: a continuous Pareto draw per
populated pair, rounded half-up and clamped to at least one trip. Sparsity is
the fraction of the leaf O/D universe that is populated.

Everything is driven by seeded substreams: the same spec and seed reproduce
the same dataset exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .dpcore import substream
from .errors import ConfigError
from .hierarchy import Key, PartitionHierarchy, TripTable, parse_hierarchy

__all__ = ["SynthSpec", "SPARSITY_NAMES", "gen_partition", "gen_flows", "gen_dataset"]

# canonical sparsity regimes
SPARSITY_NAMES = {"complete": 1.0, "dense": 0.5, "sparse": 0.01}


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic benchmark instance.

    kind "binary" defaults to 8 levels (256 leaves per side); kind "random"
    defaults to 4 levels with per-split arity uniform on {2..10}. The Pareto
    exponent is the shape parameter of the flow distribution (scale fixed at
    1); smaller means heavier tail.
    """

    kind: str = "binary"
    levels: int = 0  # 0 means the kind's default
    k_min: int = 2
    k_max: int = 10
    sparsity: float = 1.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("binary", "random"):
            raise ConfigError(f"kind must be 'binary' or 'random', got {self.kind!r}")
        if self.levels < 0:
            raise ConfigError("levels must be >= 0 (0 selects the default)")
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigError("need 2 <= k_min <= k_max")
        if not 0.0 < self.sparsity <= 1.0:
            raise ConfigError(f"sparsity must lie in (0, 1], got {self.sparsity!r}")
        if not self.exponent > 0:
            raise ConfigError("Pareto exponent must be > 0")
        try:
            (2.0**-53) ** (-1.0 / self.exponent)  # the largest draw, at rng.random() = 1 - 2**-53
        except OverflowError:
            raise ConfigError(
                "Pareto exponent must be >= 53/1024, or the largest draw overflows") from None

    @property
    def depth(self) -> int:
        """Hierarchy depth g per side."""
        if self.levels:
            return self.levels
        return 8 if self.kind == "binary" else 4


def gen_partition(spec: SynthSpec, seed: int, side: str = "origin") -> PartitionHierarchy:
    """One partition hierarchy draw. ``side`` keys the substream so the origin
    and destination hierarchies of one dataset are independent draws."""
    g = spec.depth
    if spec.kind == "binary":
        rows = [
            tuple(bits[: lvl + 1] for lvl in range(g))
            for bits in (format(i, f"0{g}b") for i in range(2**g))
        ]
        return parse_hierarchy(rows)
    rng = substream(seed, "partition", side)
    paths: List[Tuple[str, ...]] = [()]
    for _ in range(g):
        nxt: List[Tuple[str, ...]] = []
        for path in paths:
            arity = rng.randint(spec.k_min, spec.k_max)
            nxt.extend(path + (str(i),) for i in range(arity))
        paths = nxt
    rows = [tuple(".".join(path[: lvl + 1]) for lvl in range(g)) for path in paths]
    return parse_hierarchy(rows)


def _pareto_flow(rng, exponent: float) -> int:
    # continuous Pareto (scale 1), rounded half up, clamped to >= 1
    draw = (1.0 - rng.random()) ** (-1.0 / exponent)
    return max(1, math.floor(draw + 0.5))


def gen_flows(
    origin: PartitionHierarchy,
    dest: PartitionHierarchy,
    spec: SynthSpec,
    seed: int,
) -> TripTable:
    """Populate ceil(sparsity * universe) distinct O/D pairs with Pareto flows."""
    o_leaves = origin.leaves
    d_leaves = dest.leaves
    universe = len(o_leaves) * len(d_leaves)
    support = math.ceil(spec.sparsity * universe)
    rng = substream(seed, "flows")
    if support >= universe:
        cells = range(universe)
    else:
        cells = sorted(rng.sample(range(universe), support))
    width = len(d_leaves)
    counts: Dict[Key, int] = {}
    for cell in cells:
        pair = (o_leaves[cell // width], d_leaves[cell % width])
        counts[pair] = _pareto_flow(rng, spec.exponent)
    return TripTable(counts, origin, dest)


def gen_dataset(spec: SynthSpec, seed: int) -> TripTable:
    """Convenience: independent origin/destination partitions plus flows."""
    origin = gen_partition(spec, seed, "origin")
    dest = gen_partition(spec, seed, "destination")
    return gen_flows(origin, dest, spec, seed)
