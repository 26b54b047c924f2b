"""Chebyshev-optimal integer redistribution under a non-negative sum constraint.

Given an integer vector x (typically noisy counts, possibly negative) and a
target total c >= 0, find an integer vector y >= 0 with sum(y) = c minimizing
the Chebyshev distance max_i |x_i - y_i|.

The solver works on the offset z = y - x: start every coordinate at the
smallest uniform offset that covers the target, then walk the coordinates
round-robin in a chosen order, clipping each down toward max(-x_i, -t) while a
surplus remains, and relax the clip radius t by one notch per full round. The
visiting order picks which optimal solution is returned: ascending order
reduces the smallest entries first (fewest spurious positives), descending
reduces the largest first (fewest spurious zeros), random emulates an
arbitrary optimum. ``intopt_fast`` returns the same solution in closed form
for d <= 2, where every parent of a binary hierarchy lands.

``intopt_level`` solves a whole level of such problems in one call: the
children of many parents, concatenated in parent order, with each parent's
child count and target total. It returns the concatenated solutions, each
exactly what ``intopt_fast`` returns for its segment; with the random order
the segments take their shuffles from the one rng in segment order. The d = 2
closed form runs inline there, since a call per parent would cost more than
the solve itself, and ``intopt_fast`` reaches it through that same code.

All arithmetic is exact (Python integers), so there is no overflow path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["OptResult", "ORDERS", "intopt_fast", "intopt_level"]

ORDERS = ("ascending", "descending", "random")


@dataclass(frozen=True)
class OptResult:
    """A feasible solution and its Chebyshev distance from the input."""

    values: Tuple[int, ...]
    distance: int


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


def intopt_fast(
    x: Sequence[int],
    c: int,
    order: str = "ascending",
    rng: Optional[random.Random] = None,
) -> OptResult:
    """Same output as the reference loop frozen in ``tests/intopt_oracle.py``.

    It has a closed form for d <= 2 and two shortcuts above the loop.

    For d = 2 it takes ``intopt_level``'s closed form.

    Above that, coordinates already clipped to -x_i are dropped from the
    rotation at each wrap (they can only no-op), and the radius jumps by the
    whole-round average surplus instead of by 1, so a round either finishes the
    job or retires at least one coordinate. Worst case O(d^2), not O(d * max|x|).
    """
    if len(x) == 0:
        raise ValueError("x must be non-empty")
    xs = [int(v) for v in x]
    if int(c) != c or c < 0:
        raise ValueError(f"target sum must be a non-negative integer, got {c!r}")
    d = len(xs)
    if d == 1:
        return OptResult((c,), abs(c - xs[0]))
    if d == 2:
        y = intopt_level(xs, (2,), (c,), order, rng)
        return OptResult(tuple(y), max(abs(y[0] - xs[0]), abs(y[1] - xs[1])))
    target = c - sum(xs)
    # the smallest uniform offset covering the target, lifted to feasibility
    base = -((-target) // d)
    z = [base if base > -v else -v for v in xs]
    t = max(abs(v) for v in z)
    active = [i for i in _order_indices(xs, order, rng) if z[i] > -xs[i]]
    zsum = sum(z)
    j = 0
    while zsum > target:
        if not active:
            raise AssertionError("no reducible coordinate left; target sum must be >= 0")
        i = active[j]
        floor_i = max(-xs[i], -t)
        lowered = z[i] - (zsum - target)
        nz = floor_i if lowered < floor_i else lowered
        zsum += nz - z[i]
        z[i] = nz
        j += 1
        if j == len(active):
            j = 0
            active = [i2 for i2 in active if z[i2] > -xs[i2]]
            if not active:
                break  # only reachable with zsum == target; recheck ends the loop
            step = (zsum - target) // len(active)
            t += step if step > 1 else 1
    return OptResult(tuple(v + dz for v, dz in zip(xs, z)), max(map(abs, z)))


def intopt_level(
    noisy: Sequence[int],
    sizes: Sequence[int],
    totals: Sequence[int],
    order: str = "ascending",
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Solve consecutive segments of ``noisy``, the i-th holding ``sizes[i]``
    coordinates with target sum ``totals[i]``; returns the solutions concatenated.

    Each segment gets exactly ``intopt_fast(segment, total, order, rng).values``,
    in segment order, so a random order shuffles from ``rng`` segment by
    segment. For d = 2, with T = c - a - b and base = ceil(T / 2), that is
    (0, c) if base < -a, (c, 0) if base < -b, else (a + base, b + base) with,
    for odd T, one unit off the first still-positive coordinate in visiting
    order (ties go to index 0; a random order shuffles the pair as the loop would).
    """
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    if min(sizes, default=1) < 1 or sum(sizes) != len(noisy) or len(totals) != len(sizes):
        raise ValueError("segments must be non-empty, cover the input and have one total each")
    if min(totals, default=0) < 0:
        raise ValueError(f"target sums must be non-negative, got {min(totals)!r}")
    ascending, shuffled = order == "ascending", order == "random"
    values: List[int] = []
    pos = 0
    for d, c in zip(sizes, totals):
        if d == 2:
            a, b = noisy[pos], noisy[pos + 1]
            if shuffled:
                first = _order_indices([a, b], order, rng)[0]
            else:
                first = int(b < a if ascending else a < b)
            target = c - a - b
            base = -((-target) // 2)
            if base < -(a if a < b else b):  # the smaller one clips to 0 (a != b here)
                values += (0, c) if a < b else (c, 0)
            else:
                y = [a + base, b + base]
                if 2 * base > target:
                    y[first if y[first] > 0 else 1 - first] -= 1
                values += y
        else:
            values += intopt_fast(noisy[pos:pos + d], c, order, rng).values
        pos += d
    return values
