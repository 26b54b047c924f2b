"""Test-only oracle: the exact samplers as first written, one draw per call.

Kept verbatim so the frozen-stream tests can check, draw for draw, that the
production samplers consume the same random bits and return the same values.
Not imported by the package.
"""

import math
import random
from fractions import Fraction

RATIONAL_LIMIT = 10**9


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(RATIONAL_LIMIT)


def _bernoulli_exp_le1(num: int, den: int, rng: random.Random) -> int:
    # Bernoulli(exp(-num/den)) for 0 <= num <= den.
    k = 1
    while rng.randrange(k * den) < num:
        k += 1
    return k & 1


def _bernoulli_exp(num: int, den: int, rng: random.Random) -> int:
    # Bernoulli(exp(-num/den)) for any num/den >= 0, by peeling exp(-1) factors.
    while num > den:
        if not _bernoulli_exp_le1(1, 1, rng):
            return 0
        num -= den
    return _bernoulli_exp_le1(num, den, rng)


def _geometric_exp(num: int, den: int, rng: random.Random) -> int:
    # P[k] proportional to exp(-k * num/den) on k = 0, 1, 2, ...; num, den >= 1.
    while True:
        offset = rng.randrange(den)
        if _bernoulli_exp_le1(offset, den, rng):
            break
    units = 0
    while _bernoulli_exp_le1(1, 1, rng):
        units += 1
    return (units * den + offset) // num


def sample_discrete_laplace(scale, rng: random.Random) -> int:
    frac = _as_fraction(scale)
    if frac <= 0:
        raise ValueError("scale must be > 0")
    while True:
        negative = rng.getrandbits(1)
        magnitude = _geometric_exp(frac.denominator, frac.numerator, rng)
        if negative and magnitude == 0:
            continue
        return -magnitude if negative else magnitude


def _floor_sqrt(num: int, den: int) -> int:
    root = math.isqrt(num // den)
    while (root + 1) * (root + 1) * den <= num:
        root += 1
    while root * root * den > num:
        root -= 1
    return root


def sample_discrete_gaussian(sigma2, rng: random.Random) -> int:
    frac = _as_fraction(sigma2)
    if frac <= 0:
        raise ValueError("sigma2 must be > 0")
    num, den = frac.numerator, frac.denominator
    t = _floor_sqrt(num, den) + 1
    accept_den = 2 * num * den * t * t
    while True:
        y = sample_discrete_laplace(t, rng)
        accept_num = (abs(y) * den * t - num) ** 2
        if _bernoulli_exp(accept_num, accept_den, rng):
            return y
