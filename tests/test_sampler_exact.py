"""Exactness of the table-driven samplers, checked against closed forms and
exact references, independent of any earlier sampler.

- The pmf of each sampler is within a stated total-variation bound of its
  closed form: for n draws, E[TV] <= 1/2 sum_x sqrt(p_x (1 - p_x) / n), and
  TV moves by at most 1/n per draw, so (McDiarmid) it exceeds that mean by
  sqrt(ln(1/ALPHA) / (2n)) with probability at most ALPHA.
- Tables rebuilt at 8-bit and 1-bit precision, where many and then most
  decisions need the continuation, give the same draws as the full tables,
  one for one.
- A first uniform of 4 bits makes the continuation extend past 64 bits, and
  the pmf still matches.
- Every table entry brackets a 60-digit decimal reference, and the tables of
  extreme parameters stay well under 1 MB.
"""

import math
import random
import sys
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest

from inftda import PrivacyBudget, SensitivityModel, sample_discrete_gaussian
from inftda import sample_discrete_laplace
from inftda import dpcore
from inftda.dpcore import snap_parameter, substream

ALPHA = 1e-6
BUDGET = PrivacyBudget.from_eps_delta(1.0, 1e-8)
SENS = SensitivityModel()
# the per-level sigma2 of the depth-16 binary release, and the vanilla-gauss one
RELEASE_SIGMA2 = snap_parameter(SENS.level_gs2_squared * 16, 2.0 * BUDGET.rho, "sigma2", BUDGET)
VANILLA_SIGMA2 = snap_parameter(SENS.gs2_squared, 2.0 * BUDGET.rho, "sigma2", BUDGET)

SIGMA2S = [Fraction(1, 3), 4, RELEASE_SIGMA2, VANILLA_SIGMA2]
SCALES = [2, Fraction(20, 3), Fraction(1, 3)]
# past the tables' cap of 1,024 entries, where exact decisions gallop
WIDE_SIGMA2, WIDE_SCALE = 10**4, 100


def _gaussian_pmf(sigma2):
    radius = math.ceil(12 * math.sqrt(sigma2)) + 10
    weights = {x: math.exp(-x * x / (2 * float(sigma2))) for x in range(-radius, radius + 1)}
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def _laplace_pmf(scale):
    radius = math.ceil(50 * scale) + 10
    weights = {x: math.exp(-abs(x) / float(scale)) for x in range(-radius, radius + 1)}
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def _tv_and_bound(draws, pmf):
    n = len(draws)
    counts = {}
    for x in draws:
        counts[x] = counts.get(x, 0) + 1
    outside = sum(c for x, c in counts.items() if x not in pmf)
    tv = (sum(abs(counts.get(x, 0) / n - p) for x, p in pmf.items()) + outside / n) / 2
    bound = (sum(math.sqrt(p * (1 - p) / n) for p in pmf.values()) / 2
             + math.sqrt(math.log(1 / ALPHA) / (2 * n)))
    return tv, bound


CASES = ([pytest.param(sample_discrete_gaussian, s, _gaussian_pmf(s), id=f"gauss-{float(s):g}")
          for s in SIGMA2S + [WIDE_SIGMA2]]
         + [pytest.param(sample_discrete_laplace, s, _laplace_pmf(s), id=f"laplace-{float(s):g}")
            for s in SCALES + [WIDE_SCALE]])


@pytest.mark.parametrize("sampler, param, pmf", CASES)
def test_pmf_matches_the_closed_form(sampler, param, pmf):
    draws = sampler(param, substream(1, "pmf", str(param)), size=200_000)
    tv, bound = _tv_and_bound(draws, pmf)
    assert tv <= bound, (tv, bound)


@pytest.fixture
def rebuild(monkeypatch):
    """``rebuild(**constants)`` sets dpcore's sampler constants; every table is
    then built afresh, and again after the test."""
    def rebuild(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(dpcore, name, value)
        monkeypatch.setattr(dpcore, "_GAUSS_TABLES", {})
        monkeypatch.setattr(dpcore, "_LAPLACE_TABLES", {})
    rebuild()
    return rebuild


@pytest.fixture
def slow_paths(monkeypatch):
    """Counts the decisions the table lookups leave to the continuation: the
    magnitudes handed to ``_step`` and the acceptances handed to ``_below``;
    and the most bits any uniform was extended to."""
    seen = {"step": 0, "below": 0, "bits": 0}
    step, below = dpcore._step, dpcore._below
    inside = []

    def counting_step(*args):
        seen["step"] += 1
        inside.append(True)
        try:
            return step(*args)
        finally:
            inside.pop()

    def counting_below(*args):
        seen["below"] += not inside
        decided = below(*args)
        seen["bits"] = max(seen["bits"], decided[2])
        return decided

    monkeypatch.setattr(dpcore, "_step", counting_step)
    monkeypatch.setattr(dpcore, "_below", counting_below)
    return seen


class CountingRandom(random.Random):
    calls = uniforms = 0

    def getrandbits(self, k):
        self.calls += 1
        self.uniforms += k == dpcore._UNIFORM_BITS
        return super().getrandbits(k)


@pytest.mark.parametrize("bits, share", [(8, 0.005), (1, 0.5)], ids=["8-bit", "1-bit"])
@pytest.mark.parametrize("sampler, param, draws", [
    (sample_discrete_gaussian, Fraction(1, 3), 3000),
    (sample_discrete_gaussian, 4, 3000),
    (sample_discrete_gaussian, RELEASE_SIGMA2, 100),
    (sample_discrete_laplace, 2, 3000),
    (sample_discrete_laplace, Fraction(1, 3), 3000),
], ids=["gauss-1/3", "gauss-4", "gauss-release", "laplace-2", "laplace-1/3"])
def test_low_precision_tables_give_the_same_draws(rebuild, slow_paths, sampler, param, draws,
                                                  bits, share):
    full_rng, low_rng = substream(2, "one-for-one"), substream(2, "one-for-one")
    full = sampler(param, full_rng, size=draws)
    rebuild(_TABLE_BITS=bits)
    slow_paths.update(step=0, below=0)
    counting = CountingRandom()
    counting.setstate(low_rng.getstate())
    assert sampler(param, counting, size=draws) == full
    assert counting.getstate() == full_rng.getstate()
    # each decision draws one uniform: at 8 bits the first entries stay tight
    # and 1-10% of decisions leave the tables (80% at the release sigma2); at
    # 1 bit, most do
    assert slow_paths["step"] + slow_paths["below"] > share * counting.uniforms


@pytest.mark.parametrize("sampler, param, pmf", [
    pytest.param(sample_discrete_gaussian, s, _gaussian_pmf(s), id=f"gauss-{s}")
    for s in (Fraction(1, 3), 4)] + [
    pytest.param(sample_discrete_laplace, s, _laplace_pmf(s), id=f"laplace-{s}")
    for s in (2, Fraction(1, 3))])
def test_short_first_uniform_extends_past_64_bits(rebuild, slow_paths, sampler, param, pmf):
    rebuild(_UNIFORM_BITS=4)
    draws = sampler(param, substream(3, "short", str(param)), size=20_000)
    assert slow_paths["bits"] > 64
    tv, bound = _tv_and_bound(draws, pmf)
    assert tv <= bound, (tv, bound)


def _scaled(value: Decimal, bits: int) -> int:
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 80, ROUND_FLOOR
        return int((value * (1 << bits)).to_integral_value())


def _exp_ref(num: int, den: int) -> Decimal:
    # exp(-num/den) to 60 digits; floor(. * 2**64) is then exact unless the
    # product lies within 1e-40 of an integer
    with localcontext() as ctx:
        ctx.prec = 60
        return (-Decimal(num) / Decimal(den)).exp()


def _brackets(entry, num, den):
    # lo <= exp(-num/den) 2**64 <= hi, which is an integer only at num = 0
    lo, hi = entry
    floor = _scaled(_exp_ref(num, den), 64)
    return lo <= floor and floor + (num != 0) <= hi


@pytest.mark.parametrize("sigma2", [Fraction(1, 3), 4, RELEASE_SIGMA2, VANILLA_SIGMA2,
                                    WIDE_SIGMA2, 10**12])
def test_gaussian_table_entries_bracket_the_reference(rebuild, sigma2):
    frac = Fraction(sigma2)
    num, den = frac.numerator, frac.denominator
    lows, highs, k, t, accept_lo, accept_hi, covered = dpcore._gauss_tables(num, den)
    for x in range(1, k + 1):
        assert _brackets((lows[k - x], highs[x - 1]), x, t)
        assert highs[x - 1] - lows[k - x] <= 2
    assert covered == len(accept_lo) == len(accept_hi) <= dpcore._TABLE_CAP
    for m in range(covered):
        # exp(-(m - sigma2/t)**2 / (2 sigma2)), halved at 0
        f_num, f_den = (m * den * t - num) ** 2, 2 * num * den * t * t
        ref = _exp_ref(f_num, f_den) / (2 if m == 0 else 1)
        floor = _scaled(ref, 64)
        assert accept_lo[m] <= floor and floor + 1 <= accept_hi[m], m
        assert accept_hi[m] - accept_lo[m] <= 2


@pytest.mark.parametrize("scale", [2, Fraction(20, 3), Fraction(1, 3), WIDE_SCALE, 10**6])
def test_laplace_table_entries_bracket_the_reference(rebuild, scale):
    frac = Fraction(scale)
    p, q = frac.numerator, frac.denominator
    lows, highs, k = dpcore._laplace_tables(p, q)
    for x in range(1, k + 1):
        assert _brackets((lows[k - x], highs[x - 1]), x * q, p)


def test_exact_floor_matches_the_reference():
    rng = random.Random(4)
    values = [(0, 1), (1, 1), (45, 1), (44, 1), (1, 4096), (4095, 4096)]
    for _ in range(300):
        den = rng.randrange(1, 10**10)
        values.append((rng.randrange(50 * den), den))
    for num, den in values:
        assert dpcore._exp_floor(num, den, 64) == _scaled(_exp_ref(num, den), 64)
    for num, den in ((-1, 3), (-7, 3), (-1, 1000)):  # above 1, like the acceptance's exp(-A)
        assert dpcore._exp_floor(num, den, 128) == _scaled(_exp_ref(num, den), 128)


def _reference_geometric(u: int, num: int, den: int) -> int:
    # the largest x with u < floor(exp(-x num/den) 2**64): the inversion, by bisection
    lo, hi = 0, 46 * den // num + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u < _scaled(_exp_ref(mid * num, den), 64):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("num, den", [(1, 101), (1, 10**6 + 1), (1, 10**6)],
                         ids=["gauss-t-101", "gauss-sigma2-1e12", "laplace-1e6"])
def test_past_the_table_the_gallop_inverts_exactly(rebuild, num, den):
    lows, highs, k = dpcore._geometric_table(num, den)
    assert k == dpcore._TABLE_CAP
    rng = random.Random(5)
    cases = [(u, _reference_geometric(u, num, den))
             for u in [rng.getrandbits(40) for _ in range(20)]]
    # just above and below the floor of exp(-x num/den) 2**64, where it is far
    # from its neighbours
    for x in [k + 1, 2 * k, 3 * k + 7] + [rng.randrange(k, 40 * den // num) for _ in range(30)]:
        floor = _scaled(_exp_ref(x * num, den), 64)
        if floor > 4 * den // num + 10**6:
            cases += [(floor - 1, x), (floor + 1, x - 1)]

    def no_more_bits(bits):
        raise AssertionError("a 64-bit uniform off every floor needs no more bits")

    for u, expected in cases:
        assert u < lows[0]  # below the table's end, so G >= k
        assert dpcore._step(u, k, num, den, no_more_bits) == expected, u


def test_gaussian_draw_takes_at_most_five_generator_calls():
    rng = CountingRandom(6)
    draws = 100_000
    sample_discrete_gaussian(RELEASE_SIGMA2, rng, size=draws)
    assert rng.calls / draws <= 5


def _deep_size(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(_deep_size(item, seen) for item in obj)
    return size


def test_table_memory_stays_bounded(rebuild):
    rng = random.Random(7)
    gauss = sample_discrete_gaussian(10**12, rng, size=200)
    laplace = sample_discrete_laplace(10**6, rng, size=200)
    assert 10**5 < sum(x * x for x in gauss) / 200 / 10**6 < 10**7  # sigma2 ~ 1e12
    assert 10**5 < sum(map(abs, laplace)) / 200 < 10**7
    tables = [dpcore._GAUSS_TABLES[10**12, 1], dpcore._LAPLACE_TABLES[10**6, 1]]
    sizes = [_deep_size(table, set()) for table in tables]
    assert all(size < 400_000 for size in sizes), sizes
