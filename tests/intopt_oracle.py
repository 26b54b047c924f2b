"""Frozen reference Chebyshev solvers.

Verbatim copies of ``intopt.intopt_simple`` (the one-clip-per-visit loop),
``intopt.brute_force_oracle`` (exhaustive search) and ``intopt.lower_bound``
as they stood when they left the package, with the private helpers they call,
so a later edit to ``intopt.py`` cannot move the reference. ``intopt_fast``
must return exactly what ``intopt_simple`` returns; ``brute_force_oracle`` and
``lower_bound`` bound the distance from both sides. Not imported by the
package.
"""

import random
from itertools import combinations
from typing import List, Optional, Sequence

from inftda.intopt import ORDERS, OptResult


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _check_problem(x: Sequence[int], c: int) -> List[int]:
    if len(x) == 0:
        raise ValueError("x must be non-empty")
    xs = [int(v) for v in x]
    if int(c) != c or c < 0:
        raise ValueError(f"target sum must be a non-negative integer, got {c!r}")
    return xs


def lower_bound(x: Sequence[int], c: int) -> int:
    """Floor on the achievable Chebyshev distance.

    Any feasible y moves the total by c - sum(x), so some coordinate moves by
    at least ceil(|c - sum(x)| / d); and any negative coordinate must climb to
    at least zero. Clipped below at 0. Tight when x is non-negative and mass
    is added; negative coordinates can force extra removal elsewhere.
    """
    xs = _check_problem(x, c)
    gap = _ceil_div(abs(c - sum(xs)), len(xs))
    return max(gap, -min(xs), 0)


def _initial_offset(xs: List[int], c: int) -> List[int]:
    # smallest uniform shift covering the target, lifted to feasibility
    base = _ceil_div(c - sum(xs), len(xs))
    return [base if base > -v else -v for v in xs]


def _order_indices(xs: List[int], order: str, rng: Optional[random.Random]) -> List[int]:
    if order == "ascending":
        return sorted(range(len(xs)), key=lambda i: (xs[i], i))
    if order == "descending":
        return sorted(range(len(xs)), key=lambda i: (-xs[i], i))
    if order == "random":
        if rng is None:
            raise ValueError("order='random' needs an rng")
        idx = list(range(len(xs)))
        rng.shuffle(idx)
        return idx
    raise ValueError(f"order must be one of {ORDERS}, got {order!r}")


def _finish(xs: List[int], z: List[int]) -> OptResult:
    values = tuple(v + dz for v, dz in zip(xs, z))
    distance = max(abs(dz) for dz in z)
    return OptResult(values, distance)


def intopt_simple(
    x: Sequence[int],
    c: int,
    order: str = "ascending",
    rng: Optional[random.Random] = None,
) -> OptResult:
    """Reference solver: one clip per visit, radius grows by 1 per round."""
    xs = _check_problem(x, c)
    d = len(xs)
    if d == 1:
        return OptResult((c,), abs(c - xs[0]))
    target = c - sum(xs)
    z = _initial_offset(xs, c)
    t = max(abs(v) for v in z)
    idx = _order_indices(xs, order, rng)
    zsum = sum(z)
    j = 0
    while zsum > target:
        i = idx[j]
        floor_i = max(-xs[i], -t)
        lowered = z[i] - (zsum - target)
        nz = floor_i if lowered < floor_i else lowered
        zsum += nz - z[i]
        z[i] = nz
        j += 1
        if j == d:
            j = 0
            t += 1
    return _finish(xs, z)


def brute_force_oracle(x: Sequence[int], c: int) -> int:
    """Exhaustive optimum of the Chebyshev distance, for tiny instances.

    Enumerates every y >= 0 with sum(y) = c (stars and bars); intended as an
    independent test oracle, hence the hard d <= 4, c <= 12 envelope.
    """
    xs = _check_problem(x, c)
    d = len(xs)
    if d > 4:
        raise ValueError("oracle envelope is d <= 4")
    if c > 12:
        raise ValueError("oracle envelope is c <= 12")
    best = None
    for bars in combinations(range(c + d - 1), d - 1):
        prev = -1
        y = []
        for b in bars:
            y.append(b - prev - 1)
            prev = b
        y.append(c + d - 2 - prev)
        dist = max(abs(a - b) for a, b in zip(xs, y))
        if best is None or dist < best:
            best = dist
    assert best is not None
    return best
