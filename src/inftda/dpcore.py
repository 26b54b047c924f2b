"""Privacy accounting and exact integer noise primitives.

Accounting is done in zero-concentrated DP (zCDP): a mechanism run is charged
some rho, composition is additive in rho, and a (epsilon, delta) statement is
obtained through the conversion

    epsilon = rho + 2 * sqrt(rho * ln(1/delta))

All logarithms are natural. Noise is integer valued and sampled exactly: a
discrete Laplace from a geometric built on Bernoulli(exp(-x)) coin flips, and
a discrete Gaussian by rejection from the discrete Laplace. What the parameter
fixes (its exact rational, the envelope scale, the acceptance denominator) is
derived once per call, and one call returns a vector of draws. Each uniform
integer is a rejection draw on ``getrandbits``, the loop CPython's
``randrange`` runs, so it is exact and consumes the same bits. No
floating-point shortcut is involved, so the samplers carry none of the
float-grid artifacts that break DP guarantees.

Randomness comes from stdlib ``random.Random`` instances. ``substream`` derives
independent, reproducible generators from a root seed and a tuple of tokens
(SHA-256 keyed), which is what makes parallel releases bit-reproducible no
matter how work is scheduled.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .errors import ConfigError

__all__ = [
    "PrivacyBudget",
    "SensitivityModel",
    "rho_from_eps_delta",
    "eps_from_rho",
    "per_level_sigma2",
    "stability_threshold",
    "sample_discrete_gaussian",
    "sample_discrete_laplace",
    "substream",
    "derive_seed",
    "snap_parameter",
]

# Float parameters are snapped to rationals before exact sampling. At this
# limit the relative snap error is ~1e-18, orders below every tolerance used
# anywhere in the accounting.
RATIONAL_LIMIT = 10**9

Numeric = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# budget conversions


def eps_from_rho(rho: float, delta: float) -> float:
    """(epsilon, delta) statement implied by a rho-zCDP guarantee."""
    if rho < 0:
        raise ConfigError("rho must be >= 0")
    _check_delta(delta)
    if rho == 0:
        return 0.0
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))

def rho_from_eps_delta(eps: float, delta: float) -> float:
    """Largest rho whose zCDP guarantee implies (eps, delta)-DP.

    Closed-form inverse of ``eps_from_rho``; written as
    (eps / (sqrt(L+eps) + sqrt(L)))**2 with L = ln(1/delta), which avoids the
    cancellation in (sqrt(L+eps) - sqrt(L))**2 for small eps.
    """
    if eps < 0:
        raise ConfigError("eps must be >= 0")
    _check_delta(delta)
    if eps == 0:
        return 0.0
    big_l = math.log(1.0 / delta)
    return (eps / (math.sqrt(big_l + eps) + math.sqrt(big_l))) ** 2


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta!r}")


@dataclass(frozen=True)
class PrivacyBudget:
    """A privacy budget, stored as rho with the (epsilon, delta) view attached.

    Exactly one side is authoritative at construction (``from_rho`` or
    ``from_eps_delta``); the other is derived through the conversion above.
    delta may be omitted when the budget is given as rho, in which case no
    epsilon statement exists and ``epsilon`` is None.
    """

    rho: float
    epsilon: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be finite and > 0, got {self.rho!r}")

    @classmethod
    def from_rho(cls, rho: float, delta: Optional[float] = None) -> "PrivacyBudget":
        if delta is None:
            return cls(rho=float(rho))
        return cls(rho=float(rho), epsilon=eps_from_rho(rho, delta), delta=float(delta))

    @classmethod
    def from_eps_delta(cls, eps: float, delta: float) -> "PrivacyBudget":
        if not (math.isfinite(eps) and eps > 0):
            raise ConfigError(f"eps must be finite and > 0, got {eps!r}")
        return cls(rho=rho_from_eps_delta(eps, delta), epsilon=float(eps), delta=float(delta))


# ---------------------------------------------------------------------------
# sensitivity


@dataclass(frozen=True)
class SensitivityModel:
    """How much one user can move the counts.

    privacy: "bounded" (one user substitutes their trips) or "unbounded"
        (one user's trips are added or removed).
    m: per-user trip cap, >= 1.
    distinct: whether a user contributes at most one trip per O/D pair.
    """

    privacy: str = "bounded"
    m: int = 1
    distinct: bool = True

    def __post_init__(self) -> None:
        if self.privacy not in ("bounded", "unbounded"):
            raise ConfigError(f"privacy must be 'bounded' or 'unbounded', got {self.privacy!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ConfigError("m must be an integer >= 1")

    @property
    def gs2_squared(self) -> int:
        """Squared L2 sensitivity of the per-pair count vector (exact integer).

        distinct trips spread one user over m unit cells; non-distinct lets all
        m land on one cell. Substitution (bounded) doubles the squared norm.
        """
        base = self.m if self.distinct else self.m * self.m
        return 2 * base if self.privacy == "bounded" else base


def per_level_sigma2(budget: PrivacyBudget, sens: SensitivityModel, depth: int) -> float:
    """Per-level discrete Gaussian variance for a depth-``depth`` top-down release.

    sigma2 = GS2^2 * depth / (2 * rho): each level then costs rho/depth and the
    full composition consumes exactly ``budget.rho``. For the default bounded
    m=1 distinct model (GS2^2 = 2) this equals depth/rho.
    """
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    return sens.gs2_squared * depth / (2.0 * budget.rho)


def snap_parameter(value: float, what: str, budget: PrivacyBudget) -> Fraction:
    """``value`` as the rational the exact samplers use: the nearest one with a
    denominator of at most ``RATIONAL_LIMIT``.

    A budget extreme enough that this is not a finite positive rational (an
    infinite variance, or one that snaps to 0) is a ConfigError naming it.
    """
    try:
        snapped = Fraction(value).limit_denominator(RATIONAL_LIMIT)
    except (OverflowError, ValueError):
        snapped = Fraction(0)
    if snapped <= 0:
        named = f"rho={budget.rho!r}"
        if budget.epsilon is not None:
            named += f" (epsilon={budget.epsilon!r}, delta={budget.delta!r})"
        raise ConfigError(
            f"the budget {named} gives {what} = {value!r}, which is not a finite positive "
            f"rational with denominator <= {RATIONAL_LIMIT}; use a less extreme budget"
        )
    return snapped


def stability_threshold(eps: float, delta: float) -> float:
    """Pruning threshold for the stability histogram: 1 + 2*ln(2/delta)/eps."""
    if not eps > 0:
        raise ConfigError("eps must be > 0")
    _check_delta(delta)
    return 1.0 + 2.0 * math.log(2.0 / delta) / eps


# ---------------------------------------------------------------------------
# exact samplers
#
# Two integer steps, inlined in the loops below, make every draw exact: a
# uniform below n is getrandbits(n.bit_length()) redrawn until below n (the
# loop random.randrange(n) runs, bit for bit), and Bernoulli(exp(-x/n)) for
# 0 <= x <= n (von Neumann) draws uniforms below n, 2n, 3n, ... until one is
# >= x and is 1 iff that took an odd number of draws.


def _as_fraction(value: Numeric) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(RATIONAL_LIMIT)


def _exp_minus_one(getrandbits) -> int:
    # Bernoulli(exp(-1)); the first uniform is below 1, so it is 0, yet it
    # still costs bits
    while getrandbits(1):
        pass
    k = 2
    while True:
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        if r:
            return k & 1
        k += 1


def _exact_draws(count: int, p: int, q: int, getrandbits,
                 num: int = 0, den_t: int = 0, accept_den: int = 0) -> List[int]:
    # ``count`` draws, mass proportional to exp(-|x| * q/p): a geometric on the
    # p-fine grid (offset kept w.p. exp(-offset/p), plus whole units kept at
    # exp(-1) each), divided by q, with a random sign. With accept_den > 0 a
    # draw y is kept w.p. exp(-(|y| * den_t - num)^2 / accept_den), else redrawn.
    p_bits, accept_bits = p.bit_length(), accept_den.bit_length()
    draws: List[int] = []
    while len(draws) < count:
        negative = getrandbits(1)
        odd = False
        while not odd:
            offset = getrandbits(p_bits)
            while offset >= p:
                offset = getrandbits(p_bits)
            n, bits, odd = p, p_bits, True
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            while r < offset:
                n += p
                odd = not odd
                bits = n.bit_length()
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
        while _exp_minus_one(getrandbits):
            offset += p
        y = offset // q
        if negative:
            if not y:
                continue  # zero owns a single atom
            y = -y
        if accept_den:
            a = (abs(y) * den_t - num) ** 2
            while a > accept_den and _exp_minus_one(getrandbits):
                a -= accept_den
            if a > accept_den:
                continue
            n, bits, odd = accept_den, accept_bits, True
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            while r < a:
                n += accept_den
                odd = not odd
                bits = n.bit_length()
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
            if not odd:
                continue
        draws.append(y)
    return draws


def sample_discrete_laplace(scale: Numeric, rng: random.Random, size: Optional[int] = None):
    """Exact integer Laplace draw, mass proportional to exp(-|x| / scale).

    Returns one int, or a list of ``size`` draws taken in sequence.
    """
    frac = _as_fraction(scale)
    if frac.numerator <= 0:
        raise ConfigError("scale must be > 0")
    count = 1 if size is None else size
    draws = _exact_draws(count, frac.numerator, frac.denominator, rng.getrandbits)
    return draws[0] if size is None else draws


def sample_discrete_gaussian(sigma2: Numeric, rng: random.Random, size: Optional[int] = None):
    """Exact integer Gaussian draw, mass proportional to exp(-x^2 / (2*sigma2)).

    Rejection from a discrete Laplace envelope at scale t = floor(sigma) + 1,
    accepting y with probability exp(-(|y| - sigma2/t)^2 / (2*sigma2)). Every
    comparison is exact integer arithmetic. Returns one int, or a list of
    ``size`` draws taken in sequence.
    """
    frac = _as_fraction(sigma2)
    num, den = frac.numerator, frac.denominator
    if num <= 0:
        raise ConfigError("sigma2 must be > 0")
    t = math.isqrt(num // den) + 1  # floor(sqrt(floor(x))) == floor(sqrt(x))
    count = 1 if size is None else size
    draws = _exact_draws(count, t, 1, rng.getrandbits, num, den * t, 2 * num * den * t * t)
    return draws[0] if size is None else draws


# ---------------------------------------------------------------------------
# reproducible substreams


def _digest(seed: int, tokens: tuple) -> bytes:
    material = repr((int(seed),) + tokens).encode("utf-8")
    return hashlib.sha256(material).digest()


def substream(seed: int, *tokens: object) -> random.Random:
    """Deterministic RNG keyed by (seed, tokens) via SHA-256.

    Streams for distinct token tuples are independent for all practical
    purposes, and the derivation does not depend on process, platform, or
    scheduling order, so per-node noise is reproducible under parallelism.
    """
    return random.Random(int.from_bytes(_digest(seed, tuple(tokens)), "big"))


def derive_seed(seed: int, *tokens: object) -> int:
    """A fresh integer seed keyed by (seed, tokens); same derivation contract
    as ``substream`` but usable where an int is wanted (per-repeat seeds)."""
    return int.from_bytes(_digest(seed, tuple(tokens))[:8], "big")
