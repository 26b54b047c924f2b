"""Test-only oracle: the Euclidean projection and sum-preserving rounding of
the ``tda-l2`` baseline as first written, on numpy.

Kept verbatim so the equivalence tests can check that the plain-Python solve
in ``inftda.baselines`` returns the same integers for every input. Not
imported by the package.
"""

from typing import List

import numpy as np


def _project_to_simplex(x: np.ndarray, total: int) -> np.ndarray:
    """Euclidean projection onto {y >= 0, sum(y) = total}."""
    if total == 0:
        return np.zeros_like(x, dtype=float)
    u = np.sort(x)[::-1]
    shifted = (np.cumsum(u) - total) / np.arange(1, len(x) + 1)
    support = int(np.count_nonzero(u > shifted))
    tau = shifted[support - 1]
    return np.maximum(x - tau, 0.0)


def _round_preserving_sum(y: np.ndarray, total: int) -> List[int]:
    # floor everything, then hand the remainder to the largest fractional
    # parts; ties break by ascending index
    floors = np.floor(y).astype(np.int64)
    remainder = int(total - floors.sum())
    if remainder:
        fractions = y - floors
        order = np.lexsort((np.arange(len(y)), -fractions))
        floors[order[:remainder]] += 1
    return [int(v) for v in floors]


def euclidean_solve(noisy, total: int) -> List[int]:
    """The general (any fan-out) path of the solver: project, then round."""
    projected = _project_to_simplex(np.asarray(noisy, dtype=float), total)
    return _round_preserving_sum(projected, total)
