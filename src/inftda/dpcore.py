"""Privacy accounting and exact integer noise primitives.

Accounting is done in zero-concentrated DP (zCDP): a mechanism run is charged
some rho, composition is additive in rho, and a (epsilon, delta) statement is
obtained through the conversion

    epsilon = rho + 2 * sqrt(rho * ln(1/delta))

All logarithms are natural. Noise is integer valued and sampled exactly, by
inverting a cumulative table (Peikert's CDT sampler, CRYPTO 2010) with the
exactness argument of Canonne, Kamath & Steinke (NeurIPS 2020): a draw is a
function of an exact uniform u in [0, 1), and each comparison of u with a
probability is decided by integer bounds on it, never by a float. A table
brackets lo <= C * 2**64 <= hi the cumulative mass C at each boundary, from
four correctly rounded ``decimal`` exps. u's first 64 bits U place the draw
unless U is in a band [lo, hi); then the boundaries are bracketed at 64 more
bits, and u takes 64 fresh bits while that leaves it open (brackets stay a
few units wide, so that ends with probability 1). Past the table, draws go
on by exact single-exp decisions.

Each call reads its uniforms as ``getrandbits(64 * n)``, split into n 64-bit
words (the words and generator state of n ``getrandbits(64)`` calls), and
the further bits of draws left open after all of them, in draw order. So
batching can move a draw only when that draw is undecided by its first 64
bits. Within the cap of 8,000 boundaries (sigma2 up to about 1.45e5, Laplace
scales up to about 74) each band holds at most two values of U and each
tail below 2**-65 of the mass, so that has probability below
(2 * 8,000 + 1) * 2**-64 < 2**-50.

Randomness comes from stdlib ``random.Random`` instances. ``substream`` derives
independent, reproducible generators from a root seed and a tuple of tokens
(SHA-256 keyed), which is what makes releases bit-reproducible no matter how
work is scheduled: in any block order, and in any sweep worker.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple, Union

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

_GUIDE_BITS = 14  # a uniform's top bits index the guide
_CHUNK = 4096  # uniforms per getrandbits call
_TABLE_CAP = 8_000  # boundaries per table: K <= 3,999
_GUARD_BITS = 40  # fixed-point bits past the output of the recurrences
_BIG_ENDIAN = sys.byteorder == "big"


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


def _bracket(num: int, den: int, n: int) -> Tuple[int, int]:
    # lo <= exp(-num/den) * 2**n <= hi
    low = _exp_floor(num, den, n)
    return low, low + 1


def _below(num: int, den: int, getrandbits) -> bool:
    """Whether a fresh uniform lies below exp(-num/den): its first 64 bits
    meet the exact floor(exp(-num/den) * 2**64), and take 64 more bits for
    as long as they equal that floor at their length."""
    u, n = getrandbits(64), 64
    while True:
        bound = _exp_floor(num, den, n)
        if u != bound:
            return u < bound
        u = u << 64 | getrandbits(64)
        n += 64


def _geometric(rate: Fraction, getrandbits) -> int:
    """G with P(G >= j) = exp(-j * rate), from exact decisions alone
    (Canonne, Kamath & Steinke, Algorithm 2): for rate s/t, r is uniform below
    t and kept with probability exp(-r/t), v counts exp(-1) successes, and
    G = (r + t v) // s."""
    s, t = rate.numerator, rate.denominator
    while True:
        r = getrandbits((t - 1).bit_length())
        if r < t and _below(r, t, getrandbits):
            break
    v = 0
    while _below(1, 1, getrandbits):
        v += 1
    return (r + t * v) // s


def _words(getrandbits, n: int) -> array:
    # n uniforms from one getrandbits(64 * n): word i is its bits 64i..64i+63
    words = array("Q", getrandbits(64 * n).to_bytes(8 * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


class _Inverter:
    """One parameter's table, and the draws it decides. The law on the
    integers with mass proportional to w(|x|) = exp(-f(|x|)), f(m) =
    (a m**2 + b m) / d, is a Gaussian of variance d / 2a if b = 0 and a
    Laplace of scale d / b if a = 0. Its symbols are a left tail, -K..K and a
    right tail: x weighs w(|x|), and a tail E = w(K+1) exp(mu**2 / 4ad) /
    (1 - exp(-r)), mu = r d - 2a(K+1) - b, as w(K+1+j) = E (1 - exp(-r))
    exp(-r j) exp(-(2aj - mu)**2 / 4ad), the last factor 1 for a Laplace (r
    = b / d). Boundary j is the mass C_j of symbols 0..j; u draws the symbol
    after those at or below it. lows[j] <= C_j * 2**64 <= tops[j] + 1, and
    the guide names the draw of each cell of u's top bits one symbol fills.
    """

    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d
        # K puts each tail below 2**-65 of the mass (sizing only: any K is exact)
        if a:
            t = math.isqrt(d // (2 * a)) + 1  # floor(sigma) + 1
            need = math.isqrt(d * (46 + t.bit_length()) // a) + 1
        else:
            need = d * (47 + (d // b).bit_length()) // b
        self.half = k = min(need, (_TABLE_CAP - 2) // 2)
        rate = Fraction(a * (2 * k + 3) + b, d)  # f(K+2) - f(K+1)
        if a:  # past a capped table, a rate near 1/sigma keeps acceptance high
            rate = max(rate, Fraction(1, t))
        self.rate, self.mu = rate, rate * d - 2 * a * (k + 1) - b
        lows, highs = self.bounds(64)
        self.lows = array("Q", lows)
        self.tops = array("Q", [min(hi, 1 << 64) - 1 for hi in highs])
        # symbol j - K - 1 holds the cells from highs[j-1] up to lows[j] whole
        shift = 64 - _GUIDE_BITS
        self.guide: List[Optional[int]] = [None] * (1 << _GUIDE_BITS)
        for j in range(1, len(lows)):
            first, end = -(-highs[j - 1] >> shift), lows[j] >> shift
            if first < end:
                self.guide[first:end] = [j - k - 1] * (end - first)

    def bounds(self, n: int) -> Tuple[List[int], List[int]]:
        """lo <= C_j * 2**n <= hi for every boundary, from product recurrences
        rounded down for lo and up for hi, on four correctly rounded exps."""
        a, d, k, rate = self.a, self.d, self.half, self.rate
        p = n + _GUARD_BITS + (rate.denominator // rate.numerator).bit_length()
        one = 1 << p
        x_lo, x_hi = _bracket(a + self.b, d, p)  # exp(f(m) - f(m+1)) at m = 0
        q_lo, q_hi = _bracket(2 * a, d, p)  # its ratio from m to m + 1
        w_lo = w_hi = one
        weights = []
        for _ in range(k):
            weights.append((w_lo, w_hi))
            w_lo, w_hi = w_lo * x_lo >> p, -(-w_hi * x_hi >> p)
            x_lo, x_hi = x_lo * q_lo >> p, -(-x_hi * q_hi >> p)
        weights.append((w_lo, w_hi))
        # w(K+1) exp(mu**2 / 4ad) as one exp, so that neither factor overflows
        tail = Fraction(a * (k + 1) ** 2 + self.b * (k + 1), d)
        if a:
            tail -= self.mu ** 2 / (4 * a * d)
        t_lo, t_hi = _bracket(tail.numerator, tail.denominator, p)
        g_lo, g_hi = _bracket(rate.numerator, rate.denominator, p)  # exp(-r)
        e_lo, e_hi = (t_lo << p) // (one - g_lo), -(-(t_hi << p) // (one - g_hi))
        s_lo, s_hi = e_lo, e_hi
        ends = [(s_lo, s_hi)]
        for lo, hi in weights[:0:-1] + weights:
            s_lo, s_hi = s_lo + lo, s_hi + hi
            ends.append((s_lo, s_hi))
        z_lo, z_hi = s_lo + e_lo, s_hi + e_hi
        return [(lo << n) // z_hi for lo, _ in ends], [-(-(hi << n) // z_lo) for _, hi in ends]

    def sample(self, rng: random.Random, count: int) -> List[int]:
        """``count`` draws. Their first uniforms are read in chunks of
        ``getrandbits(64 * n)``, word i of a chunk being its bits 64i..64i+63;
        the bits that draws left open by the table need are read after all
        of them, in draw order."""
        getrandbits, guide, place = rng.getrandbits, self.guide, self._place
        shift = 64 - _GUIDE_BITS
        # one chunk, or a chunk read as the previous one is placed
        chunks = (_words(getrandbits, count),) if count <= _CHUNK else (
            _words(getrandbits, min(_CHUNK, count - start)) for start in range(0, count, _CHUNK))
        opened: List[int] = []  # the first 64 bits of each draw left open
        draws = [g if (g := guide[u >> shift]) is not None else place(u, opened)
                 for words in chunks for u in words]
        if opened:
            i = -1
            for u in opened:  # None marks their places, in draw order
                i = draws.index(None, i + 1)
                draws[i] = self._finish(u, getrandbits)
        return draws

    def _place(self, u: int, opened: List[int]) -> Optional[int]:
        # the draw of u in an impure cell: a bisection and one band compare
        j = bisect_right(self.lows, u)
        if 0 < j < len(self.lows) and u > self.tops[j - 1]:
            return j - self.half - 1
        opened.append(u)
        return None

    def _finish(self, u: int, getrandbits) -> int:
        """The draw whose first 64 bits u lie in a band or past the table. In
        a band the boundaries are bracketed at 64 bits more than u has, and u
        takes 64 fresh bits while that leaves it open; a geometric j past the
        table is kept with its exact acceptance, or the draw starts again."""
        a, k, top = self.a, self.half, len(self.lows)
        while True:
            j, n = bisect_right(self.lows, u), 64
            if j and u <= self.tops[j - 1]:
                while True:
                    lows, highs = self.bounds(n + 64)
                    j = bisect_left(lows, (u + 1) << 64)
                    if not j or highs[j - 1] <= u << 64:
                        break
                    u, n = u << 64 | getrandbits(64), n + 64
            if 0 < j < top:
                return j - k - 1
            m = _geometric(self.rate, getrandbits)
            v = (2 * a * m - self.mu) ** 2 / (4 * a * self.d) if a else None
            if not a or _below(v.numerator, v.denominator, getrandbits):
                return k + 1 + m if j else -k - 1 - m
            u = getrandbits(64)


@lru_cache(maxsize=16)
def _inverter(a: int, b: int, d: int) -> _Inverter:
    return _Inverter(a, b, d)


def sample_discrete_laplace(scale: Numeric, rng: random.Random, size: Optional[int] = None):
    """Exact integer Laplace draw, mass proportional to exp(-|x| / scale).

    Returns one int, or a list of ``size`` draws taken in sequence. Batching
    can move a draw only when it is undecided by its first 64 bits, with
    probability below 2**-50 (see the module docstring).
    """
    frac = _as_fraction(scale)
    p, q = frac.numerator, frac.denominator
    if p <= 0:
        raise ConfigError("scale must be > 0")
    draws = _inverter(0, q, p).sample(rng, 1 if size is None else size)
    return draws[0] if size is None else draws


def sample_discrete_gaussian(sigma2: Numeric, rng: random.Random, size: Optional[int] = None):
    """Exact integer Gaussian draw, mass proportional to exp(-x^2 / (2*sigma2)).

    Returns one int, or a list of ``size`` draws taken in sequence. Batching
    can move a draw only when it is undecided by its first 64 bits, with
    probability below 2**-50 (see the module docstring).
    """
    frac = _as_fraction(sigma2)
    num, den = frac.numerator, frac.denominator
    if num <= 0:
        raise ConfigError("sigma2 must be > 0")
    draws = _inverter(den, 0, 2 * num).sample(rng, 1 if size is None else size)
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
    scheduling order, so per-node noise is the same in any block order and
    in any worker of a sweep.
    """
    return random.Random(int.from_bytes(_digest(seed, tuple(tokens)), "big"))


def derive_seed(seed: int, *tokens: object) -> int:
    """A fresh integer seed keyed by (seed, tokens); same derivation contract
    as ``substream`` but usable where an int is wanted (per-repeat seeds)."""
    return int.from_bytes(_digest(seed, tuple(tokens))[:8], "big")
