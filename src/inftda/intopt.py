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
arbitrary optimum. ``intopt_fast`` returns the same solution: one coordinate
takes the total, two take a closed form (every parent of a binary hierarchy
has two children), and more run a shortcut of the loop.

``intopt_level`` solves a whole level of such problems in one call: the
children of many parents, concatenated in parent order, with each parent's
child count and target total. It returns the concatenated solutions, each
exactly what ``intopt_fast`` returns for its segment; with the random order
the segments take their shuffles from the one rng in segment order. It walks
the level in maximal runs of equal child count (``solve_runs``) and solves a
run of pairs in one pass of the closed form, since a call per parent would
cost more than the solve itself; ``intopt_fast`` reaches the closed form
through that same pass, and the ``tda-l2`` baseline's solver walks its levels
with it too.

All arithmetic is exact (Python integers), so there is no overflow path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby
from operator import lt, sub
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["OptResult", "ORDERS", "intopt_fast", "intopt_level"]

ORDERS = ("ascending", "descending", "random")

_BAD_SEGMENTS = "segments must be non-empty, cover the input and have one total each"


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

    A lone coordinate takes c and a pair takes ``intopt_level``'s closed form.

    Above that the loop runs with two shortcuts: coordinates already clipped
    to -x_i are dropped from the rotation at each wrap (they can only no-op),
    and the radius jumps by the whole-round average surplus instead of by 1,
    so a round either finishes the job or retires at least one coordinate.
    Worst case O(d^2), not O(d * max|x|).
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


def solve_runs(
    noisy: Sequence[int],
    sizes: Sequence[int],
    totals: Sequence[int],
    lifts: Callable[[List[int]], Iterable[int]],
    solve: Callable[[List[int], int], Sequence[int]],
) -> List[int]:
    """Solve consecutive segments of ``noisy``, the i-th holding ``sizes[i]``
    coordinates with target sum ``totals[i]``, in maximal runs of equal size;
    returns the solutions concatenated.

    A one-coordinate segment takes its total. A run of two-coordinate
    segments is solved in one pass: the pair (a, b) with total c becomes
    (y, c - y), y = clamp((a - b + c + f) // 2, 0, c), with f in {0, 1} the
    pair's entry of ``lifts(run)``. ``lifts`` is called once per pair run and
    every larger segment gets ``solve(segment, total)``, all in level order,
    so what either draws from an rng it draws segment by segment. The level
    is checked before any segment is solved, so a level refused with
    ``ValueError`` has called neither ``lifts`` nor ``solve``.
    """
    if len(totals) != len(sizes):
        raise ValueError(_BAD_SEGMENTS)
    if sizes and sizes.count(sizes[0]) == len(sizes):
        shape = [(sizes[0], len(sizes))]
    else:
        shape = [(d, len(list(run))) for d, run in groupby(sizes)]
    covered = 0
    for d, n in shape:
        if d < 1:
            raise ValueError(_BAD_SEGMENTS)
        covered += d * n
    if covered != len(noisy):
        raise ValueError(_BAD_SEGMENTS)
    if totals and min(totals) < 0:
        raise ValueError(f"target sums must be non-negative, got {min(totals)!r}")
    values = [0] * len(noisy)
    pos = segment = 0
    for d, n in shape:
        end = pos + d * n
        run_totals = totals[segment:segment + n]
        if d == 2:
            run = noisy[pos:end]
            pairs = iter(run)
            firsts = [0 if y < 0 else c if y > c else y
                      for a, b, c, f in zip(pairs, pairs, run_totals, lifts(run))
                      for y in [(a - b + c + f) // 2]]
            values[pos:end:2] = firsts
            values[pos + 1:end:2] = map(sub, run_totals, firsts)
        elif d == 1:
            values[pos:end] = run_totals
        else:
            for start, c in zip(range(pos, end, d), run_totals):
                values[start:start + d] = solve(noisy[start:start + d], c)
        pos, segment = end, segment + n
    return values


def _firsts(order: str, rng: Optional[random.Random]) -> Callable[[List[int]], Iterable[int]]:
    # for each pair of a run, the index its visit order reaches first (ties go
    # to index 0), which is the one a pair with an odd surplus lowers
    if order == "ascending":
        return lambda run: map(lt, run[1::2], run[0::2])
    if order == "descending":
        return lambda run: map(lt, run[0::2], run[1::2])
    return lambda run: [_order_indices(run[i:i + 2], order, rng)[0]
                        for i in range(0, len(run), 2)]


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
    segment. ``solve_runs`` walks the level in runs of equal size, so a run of
    pairs takes one pass of a closed form. For the pair (a, b) with total c
    and T = c - a - b, the loop moves both by ceil(T / 2), or, where that
    leaves the smaller value m below 0, sets m to 0 and the other to c; for
    odd T it then takes the spare unit off the coordinate its order visits
    first (x_f; the other is x_o) if that is still positive, else off x_o.
    Each case gives y_f = clamp(x_f + floor(T / 2), 0, c):
    - the clip is m + ceil(T / 2) < 0, which puts x_f + floor(T / 2) below 0
      if m = x_f, and above c if m = x_o (it equals c - x_o - ceil(T / 2));
    - no clip and even T, or odd T with x_f + ceil(T / 2) > 0, gives
      y_f = x_f + floor(T / 2), within [0, c] as both shifted values are;
    - odd T with x_f + ceil(T / 2) = 0 leaves y_f = 0, where
      x_f + floor(T / 2) = -1 clamps to 0.
    Equal values tie to index 0 in both sorted orders; a random order
    shuffles [0, 1] from ``rng`` once per pair, in pair order, as the loop
    does. With f the index of x_f, y_0 = clamp((a - b + c + f) // 2, 0, c):
    for f = 1, c - clamp(b + floor(T / 2), 0, c) = clamp(a + ceil(T / 2), 0, c).
    """
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    if order == "random" and rng is None:
        raise ValueError("order='random' needs an rng")
    return solve_runs(noisy, sizes, totals, _firsts(order, rng),
                      lambda segment, c: intopt_fast(segment, c, order, rng).values)
