"""Privacy accounting and exact integer noise primitives.

Accounting is done in zero-concentrated DP (zCDP): a mechanism run is charged
some rho, composition is additive in rho, and a (epsilon, delta) statement is
obtained through the conversion

    epsilon = rho + 2 * sqrt(rho * ln(1/delta))

All logarithms are natural. Noise is integer valued and sampled exactly, on
the structure of Canonne, Kamath & Steinke (NeurIPS 2020, section 5): a
discrete Laplace is a random sign and a geometric magnitude, and a discrete
Gaussian is drawn by rejection from a discrete Laplace envelope. Each random
decision asks whether a uniform lies below a probability exp(-v), v rational:
the geometric's tail P(|x| >= k) = exp(-k/scale), or the Gaussian's
acceptance. Tables hold integer bounds lo <= p * 2**64 <= hi for them, built
once per parameter (and cached by its numerator and denominator) by
fixed-point product recurrences, rounded down for lo and up for hi, from a
few correctly rounded ``decimal`` exps. One 64-bit uniform decides unless it
lands in [lo, hi); then it meets the exactly computed floor(p * 2**n) and,
only while it equals that floor, more random bits, as in Karney's exact
normal sampler (ACM TOMS 2016). So every draw has exactly the stated
distribution, and no float decides one. At the depth-16 binary release's
sigma2 (about 1,211) a Gaussian draw takes about 3.7 ``getrandbits`` calls: a
magnitude and an acceptance uniform per envelope draw (1.3 per accepted
draw) and a sign bit.

Tables stop at 1,024 entries. Past them, a magnitude is found by galloping
exact decisions and the acceptance is one exact decision, each a ``decimal``
exp of about 0.1 ms. That is rare while the envelope scale t stays well
under 1,024, but from sigma2 of about 5e4 on (epsilon below about 0.15 at
depth 16) it makes draws slower than a plain von Neumann sampler's.

Randomness comes from stdlib ``random.Random`` instances. ``substream`` derives
independent, reproducible generators from a root seed and a tuple of tokens
(SHA-256 keyed), which is what makes parallel releases bit-reproducible no
matter how work is scheduled.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

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

# Noise parameters are snapped up to rationals before exact sampling. At this
# limit the snap adds ~1e-18 relative, or at most 1e-9 absolute where the
# nearest rational lies below, orders below every tolerance in the accounting.
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

    @property
    def level_gs2_squared(self) -> int:
        """Squared L2 sensitivity charged to every level of a top-down release.

        A node above the leaves sums many pairs, so all m of one user's trips
        can land in one node even when they are distinct: 2m^2 bounded, m^2
        unbounded, the non-distinct leaf value. ``distinct`` discounts leaf
        cells alone (``gs2_squared``, which the flat Gaussian release uses).
        """
        base = self.m * self.m
        return 2 * base if self.privacy == "bounded" else base


def per_level_sigma2(budget: PrivacyBudget, sens: SensitivityModel, depth: int) -> Fraction:
    """Per-level discrete Gaussian variance for a depth-``depth`` top-down
    release, snapped as the release samples it.

    sigma2 = GS2^2 * S / (2 * rho) with GS2^2 = ``level_gs2_squared`` and S
    equal shares of rho: one per level, plus one for the noisy root total in
    unbounded mode. Each level then costs rho/S and the full composition
    consumes exactly ``budget.rho``. For the default bounded m=1 model
    (GS2^2 = 2) this is depth/rho.
    """
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    shares = depth + 1 if sens.privacy == "unbounded" else depth
    return snap_parameter(sens.level_gs2_squared * shares, 2.0 * budget.rho,
                          "the per-level sigma2", budget)


def snap_parameter(numerator: int, denominator: float, what: str,
                   budget: PrivacyBudget) -> Fraction:
    """The noise parameter ``numerator / denominator`` (a variance or a scale)
    as the rational the exact samplers use, never below the exact quotient nor
    its float: the nearest rational with a denominator of at most
    ``RATIONAL_LIMIT`` if it is not smaller, else the next multiple of
    1/``RATIONAL_LIMIT`` up.

    A budget extreme enough that this is not a finite positive rational (an
    infinite parameter, or one nearest to 0) is a ConfigError naming it.
    """
    value = numerator / denominator
    try:
        bound = max(Fraction(value), Fraction(numerator) / Fraction(denominator))
        snapped = bound.limit_denominator(RATIONAL_LIMIT)
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
    if snapped < bound:
        snapped = Fraction(math.ceil(bound * RATIONAL_LIMIT), RATIONAL_LIMIT)
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
# Every random decision asks whether a uniform u in [0, 1) falls below a
# probability p = exp(-v), v >= 0 rational (halved for one entry). u is read
# lazily: its first _UNIFORM_BITS bits are one getrandbits call, U, and a
# table entry lo <= p * 2**_UNIFORM_BITS <= hi decides unless lo <= U < hi
# (U < lo gives u < (U + 1) / 2**b <= p; U >= hi gives u >= p). In that band,
# and past a table's end, U is compared with floor(p * 2**n), computed
# exactly at its n bits so far, and takes _EXTEND_BITS more bits while it
# equals that floor. So each decision is a function of u alone, whatever
# precision the tables have.

_UNIFORM_BITS = 64  # bits of the first uniform of each decision, at most 64
_EXTEND_BITS = 64  # bits added to an undecided uniform per step
_TABLE_BITS = 128  # fixed-point precision of the table recurrences
_TABLE_CAP = 1024  # entries per table; past it, exact decisions take over
_CACHE_SIZE = 16  # parameters whose tables are kept, per sampler

_GAUSS_TABLES: Dict[Tuple[int, int], tuple] = {}
_LAPLACE_TABLES: Dict[Tuple[int, int], tuple] = {}


def _as_fraction(value: Numeric) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(RATIONAL_LIMIT)


def _exp_floor(num: int, den: int, n: int) -> int:
    """floor(exp(-num/den) * 2**n), exactly, for den >= 1 and n >= 0.

    decimal's exp is correctly rounded, so it errs by under one unit in its
    last digit; the exponent is rounded down for the lower bracket and up for
    the upper, and the digits grow until both brackets share their floor.
    exp(-v) * 2**n is irrational for v != 0, so that ends.
    """
    if num == 0:
        return 1 << n
    if num * 10_000 > den * 6_932 * n:  # v > n * ln 2, so exp(-v) * 2**n < 1
        return 0
    # n bits, plus the digits of v (its rounding error scales with it) and, for
    # v < 0, of exp(-v) > 1, plus guard digits
    digits = n * 3 // 10 + len(str(abs(num) // den)) + max(0, -num // den) // 2 + 12
    while True:
        floors = []
        for rounding, side in ((ROUND_FLOOR, -1), (ROUND_CEILING, 1)):
            context = Context(prec=digits, rounding=rounding)
            value = context.exp(context.divide(-num, den))
            ulp = Fraction(10) ** (value.adjusted() - digits + 1)
            floors.append(math.floor((Fraction(value) + side * ulp) * (1 << n)))
        if floors[0] == floors[1]:
            return floors[0]
        digits += 10


def _bracket(num: int, den: int) -> Tuple[int, int]:
    # lo <= exp(-num/den) * 2**_TABLE_BITS <= hi
    low = _exp_floor(num, den, _TABLE_BITS)
    return low, low + 1


def _powers(num: int, den: int, count: int) -> List[Tuple[int, int]]:
    """_TABLE_BITS brackets of exp(-x * num/den) for x = 0..count-1: one exp
    call, then a product recurrence rounded down for lo and up for hi."""
    f = _TABLE_BITS
    r_lo, r_hi = _bracket(num, den)
    lo = hi = 1 << f
    powers = []
    for _ in range(count):
        powers.append((lo, hi))
        lo, hi = lo * r_lo >> f, -(-hi * r_hi >> f)
    return powers


def _uniform_scale(lo: int, hi: int) -> Tuple[int, int]:
    # a _TABLE_BITS bracket of a probability, rounded outward to the uniform's bits
    shift = _TABLE_BITS - _UNIFORM_BITS
    if shift >= 0:
        lo, hi = lo >> shift, -(-hi >> shift)
    else:
        lo, hi = lo << -shift, hi << -shift
    return lo, min(hi, 1 << _UNIFORM_BITS)


def _below(u: int, n: int, num: int, den: int, halve: int, getrandbits) -> Tuple[bool, int, int]:
    # whether the uniform whose first n bits are u lies below
    # exp(-num/den) / 2**halve, with u and n as far as deciding it drew them
    while True:
        bound = _exp_floor(num, den, n - halve)
        if u != bound:
            return u < bound, u, n
        u = u << _EXTEND_BITS | getrandbits(_EXTEND_BITS)
        n += _EXTEND_BITS


def _step(u: int, a: int, num: int, den: int, getrandbits) -> int:
    """The draw of G, P(G >= x) = exp(-x * num/den), whose first uniform is u,
    where the geometric table does not place it: G is the largest x with u
    below exp(-x * num/den), and a is known to be one. Gallops up from a,
    then bisects, each step an exact decision."""
    n = _UNIFORM_BITS
    step = 1
    while True:
        below, u, n = _below(u, n, (a + step) * num, den, 0, getrandbits)
        if not below:
            break
        a += step
        step *= 2
    b = a + step  # u is below at a, not at b
    while b - a > 1:
        mid = (a + b) // 2
        below, u, n = _below(u, n, mid * num, den, 0, getrandbits)
        a, b = (mid, b) if below else (a, mid)
    return a


def _geometric_table(num: int, den: int) -> tuple:
    """Bounds on P(G >= x) = exp(-x * num/den), x = 1..k, for the geometric G:
    the lower ones reversed (ascending, for bisect), the upper ones in order;
    k reaches exp(-k * num/den) < 2**-64 unless the cap stops it first. The
    draw is k - bisect_right(lows, U) unless U is in that entry's band, or
    below the capped table's end."""
    k = min(_TABLE_CAP, -(-45 * den // num))
    lows, highs = zip(*(_uniform_scale(lo, hi) for lo, hi in _powers(num, den, k + 1)[1:]))
    return list(reversed(lows)), list(highs), k


def _acceptance_table(num: int, den: int, t: int) -> Tuple[List[int], List[int]]:
    """Bounds on exp(-f(m)), f(m) = (m - c)**2 / (2 sigma2), for the magnitudes
    m = 0, 1, ... of the envelope draw; sigma2 = num/den, c = sigma2/t.

    f(0) = sigma2 / (2 t**2) and f(m+1) - f(m) = A + m * B, so exp(-f(m)) is a
    running product of exp(-A) and powers of exp(-B): three exp calls in all.
    The entry for 0 is halved, since a negative zero is drawn again. The table
    ends once exp(-f(m)) < 2**-64 past c, or at the cap.
    """
    size = min(_TABLE_CAP, num // (den * t) + math.isqrt(90 * num // den) + 2)
    f = _TABLE_BITS
    g_lo, g_hi = _bracket(num, 2 * den * t * t)
    a_lo, a_hi = _bracket(den * t - 2 * num, 2 * num * t)
    lows, highs = [], []
    low, high = _uniform_scale(g_lo >> 1, -(-g_hi >> 1))
    for p_lo, p_hi in _powers(den, num, size):  # exp(-B)**m
        lows.append(low)
        highs.append(high)
        step_lo, step_hi = a_lo * p_lo >> f, -(-a_hi * p_hi >> f)
        g_lo, g_hi = g_lo * step_lo >> f, -(-g_hi * step_hi >> f)
        low, high = _uniform_scale(g_lo, g_hi)
    return lows, highs


def _kept(cache: Dict[Tuple[int, int], tuple], key: Tuple[int, int], tables: tuple) -> tuple:
    if len(cache) >= _CACHE_SIZE:
        cache.clear()
    cache[key] = tables
    return tables


def _laplace_tables(p: int, q: int) -> tuple:
    return _kept(_LAPLACE_TABLES, (p, q), _geometric_table(q, p))


def _gauss_tables(num: int, den: int) -> tuple:
    t = math.isqrt(num // den) + 1  # floor(sqrt(floor(x))) == floor(sqrt(x))
    accept_lo, accept_hi = _acceptance_table(num, den, t)
    return _kept(_GAUSS_TABLES, (num, den),
                 _geometric_table(1, t) + (t, accept_lo, accept_hi, len(accept_lo)))


def sample_discrete_laplace(scale: Numeric, rng: random.Random, size: Optional[int] = None):
    """Exact integer Laplace draw, mass proportional to exp(-|x| / scale).

    A random sign and a geometric magnitude, P(|x| >= k) = exp(-k / scale),
    with a negative zero drawn again. Returns one int, or a list of ``size``
    draws taken in sequence.
    """
    frac = _as_fraction(scale)
    p, q = frac.numerator, frac.denominator
    if p <= 0:
        raise ConfigError("scale must be > 0")
    lows, highs, k = _LAPLACE_TABLES.get((p, q)) or _laplace_tables(p, q)
    getrandbits, width = rng.getrandbits, _UNIFORM_BITS
    count = 1 if size is None else size
    draws: List[int] = []
    while len(draws) < count:
        negative = getrandbits(1)
        u = getrandbits(width)
        y = k - bisect_right(lows, u)
        if y == k or u < highs[y]:
            y = _step(u, y, q, p, getrandbits)
        if negative:
            if not y:
                continue
            y = -y
        draws.append(y)
    return draws[0] if size is None else draws


def sample_discrete_gaussian(sigma2: Numeric, rng: random.Random, size: Optional[int] = None):
    """Exact integer Gaussian draw, mass proportional to exp(-x^2 / (2*sigma2)).

    Rejection from a discrete Laplace envelope at scale t = floor(sigma) + 1,
    accepting y with probability exp(-(|y| - sigma2/t)^2 / (2*sigma2)); the
    sign is drawn only for an accepted nonzero magnitude. Returns one int, or
    a list of ``size`` draws taken in sequence.
    """
    frac = _as_fraction(sigma2)
    num, den = frac.numerator, frac.denominator
    if num <= 0:
        raise ConfigError("sigma2 must be > 0")
    lows, highs, k, t, accept_lo, accept_hi, covered = (
        _GAUSS_TABLES.get((num, den)) or _gauss_tables(num, den))
    getrandbits, width = rng.getrandbits, _UNIFORM_BITS
    count = 1 if size is None else size
    draws: List[int] = []
    while len(draws) < count:
        u = getrandbits(width)
        y = k - bisect_right(lows, u)
        if y == k or u < highs[y]:
            y = _step(u, y, 1, t, getrandbits)
        u = getrandbits(width)
        if y < covered and u >= accept_hi[y]:
            continue
        if (y >= covered or u >= accept_lo[y]) and not _below(
                u, width, (y * den * t - num) ** 2, 2 * num * den * t * t, 0 if y else 1,
                getrandbits)[0]:
            continue
        if y and getrandbits(1):
            y = -y
        draws.append(y)
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
