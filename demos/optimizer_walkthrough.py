"""Step through the integer Chebyshev projection on small instances.

The solver takes noisy child estimates x and a parent total c, and finds
non-negative integers y summing to c while minimizing max|y_i - x_i|. The
visit order decides who absorbs the slack when several optima exist: visiting
ascending pushes small (usually empty) cells down first, which is what keeps
false discoveries low in a top-down release.
"""

import random

from inftda import intopt_fast

CASES = [
    ((0, -1, 1), 2),   # noise went negative on an empty cell
    ((2, 2, 5), 5),    # surplus to remove, tie between the twos
    ((-4, -2), 0),     # everything clips to zero
    ((7, 0, 0, 9), 10),
]


def main() -> None:
    for x, c in CASES:
        print(f"x = {x}, parent total c = {c}")
        for order in ("ascending", "descending", "random"):
            rng = random.Random(0) if order == "random" else None
            res = intopt_fast(x, c, order, rng)
            print(f"  {order:>10}: y = {res.values}, distance {res.distance}")
        print()


if __name__ == "__main__":
    main()
