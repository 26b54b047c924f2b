"""Exactness of the table-inversion samplers, checked against closed forms
and exact references, independent of any earlier sampler.

- The pmf of each sampler is within a stated total-variation bound of its
  closed form: for n draws, E[TV] <= 1/2 sum_x sqrt(p_x (1 - p_x) / n), and
  TV moves by at most 1/n per draw, so (McDiarmid) it exceeds that mean by
  sqrt(ln(1/ALPHA) / (2n)) with probability at most ALPHA. With the table
  capped at a few entries, most draws go past it, and the pmf still matches.
- Every table boundary, at 64 and at 128 bits, brackets an 80-digit decimal
  reference, and every guide cell names the draw that reference gives.
- Brackets built with 56 fewer bits, where many draws need the exact path,
  give the same draws as the full tables, one for one.
- Uniforms forced into a band, into an impure guide cell and past the table
  are decided as the reference decides them, with their further bits read
  after the call's uniforms, in draw order.
- A call reads its uniforms in chunks of ``getrandbits(64 * n)``, at the
  small-budget sigma2 draws make no exact exp, and tables stay under 400 KB.
"""

import math
import random
import sys
from bisect import bisect_left, bisect_right
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
# wide parameters: a table of about 2,000 boundaries, and one at the cap
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




SMALL_BUDGET = PrivacyBudget.from_eps_delta(0.1, 1e-8)
# the per-level sigma2 of the depth-16 binary release at epsilon 0.1 (~1.2e5)
SMALL_SIGMA2 = snap_parameter(SENS.level_gs2_squared * 16, 2.0 * SMALL_BUDGET.rho, "sigma2",
                              SMALL_BUDGET)


def _gauss(sigma2):
    frac = Fraction(sigma2)
    return frac.denominator, 0, 2 * frac.numerator


def _laplace(scale):
    frac = Fraction(scale)
    return 0, frac.denominator, frac.numerator


# (a, b, d) of the inverter; 1e12 and the Laplace scales 100 and 1e6 stop at the cap
PARAMS = ([pytest.param(_gauss(s), id=f"gauss-{float(s):g}")
           for s in SIGMA2S + [WIDE_SIGMA2, SMALL_SIGMA2, 10**12]]
          + [pytest.param(_laplace(s), id=f"laplace-{float(s):g}")
             for s in SCALES + [WIDE_SCALE, 10**6]])


@pytest.fixture
def fresh(monkeypatch):
    """``fresh(**constants)`` sets dpcore's sampler constants; every table is
    then built afresh, and again after the test."""
    def fresh(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(dpcore, name, value)
        dpcore._inverter.cache_clear()
    fresh()
    yield fresh
    dpcore._inverter.cache_clear()


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


def _reference(inverter):
    """The boundaries C_j to 80 digits: each weight its own decimal exp, the
    tail E from its closed form at the inverter's K and rate."""
    a, b, d, k, rate = inverter.a, inverter.b, inverter.d, inverter.half, inverter.rate
    with localcontext() as ctx:
        ctx.prec = 80
        weights = [(-Decimal(a * m * m + b * m) / d).exp() for m in range(k + 1)]
        mu = rate * d - 2 * a * (k + 1) - b
        tail = Fraction(a * (k + 1) ** 2 + b * (k + 1), d) - (mu * mu / (4 * a * d) if a else 0)
        envelope = 1 - (-Decimal(rate.numerator) / rate.denominator).exp()
        total = (-Decimal(tail.numerator) / tail.denominator).exp() / envelope
        ends = [total]
        for w in weights[:0:-1] + weights:
            total += w
            ends.append(total)
        total += ends[0]
        return [end / total for end in ends]


def _floors(reference, bits):
    return [_scaled(c, bits) for c in reference]


@pytest.mark.parametrize("param", PARAMS)
def test_boundaries_bracket_the_reference(fresh, param):
    inverter = dpcore._inverter(*param)
    reference = _reference(inverter)
    assert len(inverter.lows) == len(reference) == 2 * inverter.half + 2 <= dpcore._TABLE_CAP
    for j, floor in enumerate(_floors(reference, 64)):
        # C_j * 2**64 is not an integer, so it lies in [floor, floor + 1)
        assert inverter.lows[j] <= floor <= inverter.tops[j] <= inverter.lows[j] + 1, j
    lows, highs = inverter.bounds(128)
    for j, floor in enumerate(_floors(reference, 128)):
        assert lows[j] <= floor < highs[j] <= lows[j] + 3, j
    if inverter.half < (dpcore._TABLE_CAP - 2) // 2:
        assert reference[0] + 1 - reference[-1] < Decimal(2) ** -64  # the tails


@pytest.mark.parametrize("param", PARAMS)
def test_guide_names_the_reference_draw(fresh, param):
    inverter = dpcore._inverter(*param)
    floors = _floors(_reference(inverter), 64)
    width = 1 << (64 - dpcore._GUIDE_BITS)
    named = 0
    for cell, draw in enumerate(inverter.guide):
        if draw is not None:
            start = cell * width
            # no boundary floor in the cell, and the draw is the symbol after
            # every boundary below it
            i = bisect_left(floors, start)
            assert i == bisect_right(floors, start + width - 1)
            assert draw == i - inverter.half - 1, cell
            named += 1
    if inverter.half < (dpcore._TABLE_CAP - 2) // 2:
        assert named >= len(inverter.guide) // 2


class Scripted(random.Random):
    """A generator whose first call returns the given words, packed as
    ``getrandbits(64 * n)`` packs them, and whose next calls return the
    given 64-bit extensions; then it goes on as a seeded ``random.Random``.
    ``asked`` records the bits of every call."""

    def __init__(self, words, extensions=()):
        super().__init__(9)
        self.words, self.extensions, self.asked = list(words), list(extensions), []

    def getrandbits(self, k):
        self.asked.append(k)
        if self.words:
            words, self.words = self.words, []
            assert k == 64 * len(words)
            return sum(word << 64 * i for i, word in enumerate(words))
        if self.extensions:
            assert k == 64
            return self.extensions.pop(0)
        return super().getrandbits(k)


def _draw(param, rng, size=None):
    a, b, d = param
    if a:
        return sample_discrete_gaussian(Fraction(d, 2 * a), rng, size)
    return sample_discrete_laplace(Fraction(d, b), rng, size)


FORCED = [pytest.param(_gauss(s), id=f"gauss-{float(s):g}")
          for s in (Fraction(1, 3), RELEASE_SIGMA2, SMALL_SIGMA2)] + [
          pytest.param(_laplace(s), id=f"laplace-{float(s):g}") for s in (2, Fraction(1, 3))]


def _banded(inverter, floors):
    """Boundaries whose 64-bit floor no other boundary shares, from the
    middle of the table and from both ends, and their floors."""
    picks = [j for j in range(1, len(floors) - 1)
             if floors[j - 1] < floors[j] < floors[j + 1]]
    chosen = picks[: 2] + picks[len(picks) // 2 - 1: len(picks) // 2 + 1] + picks[-2:]
    return [(j, floors[j]) for j in chosen]


@pytest.mark.parametrize("param", FORCED)
def test_a_uniform_in_a_band_is_decided_by_one_extension(fresh, param):
    inverter = dpcore._inverter(*param)
    reference = _reference(inverter)
    floors, fine = _floors(reference, 64), _floors(reference, 128)
    k = inverter.half
    for j, u in _banded(inverter, floors):
        assert inverter.lows[j] <= u <= inverter.tops[j]
        low_word = fine[j] & (2**64 - 1)  # C_j * 2**128 lies in [fine[j], fine[j] + 1)
        for extension in {0, 2**64 - 1, low_word ^ 1, (low_word + 2**63) % 2**64} - {low_word}:
            rng = Scripted([u], [extension])
            # the draw is the symbol after the boundaries below u
            expected = bisect_right(fine, u << 64 | extension) - k - 1
            assert _draw(param, rng) == expected, (j, extension)
            assert rng.asked == [64, 64]


@pytest.mark.parametrize("param", FORCED)
def test_a_band_extends_past_128_bits_when_those_tie(fresh, param):
    inverter = dpcore._inverter(*param)
    reference = _reference(inverter)
    floors, fine, finer = _floors(reference, 64), _floors(reference, 128), _floors(reference, 192)
    k = inverter.half
    for j, u in _banded(inverter, floors):
        tie = fine[j] & (2**64 - 1)
        for last in (0, 2**64 - 1):
            rng = Scripted([u], [tie, last])
            assert (fine[j] << 64 | last) != finer[j]
            expected = j - k - 1 + (0 if (fine[j] << 64 | last) < finer[j] else 1)
            assert _draw(param, rng) == expected, (j, last)
            assert rng.asked == [64, 64, 64]


@pytest.mark.parametrize("param", FORCED)
def test_impure_cells_bisect_without_more_bits(fresh, param):
    inverter = dpcore._inverter(*param)
    floors = _floors(_reference(inverter), 64)
    width = 1 << (64 - dpcore._GUIDE_BITS)
    impure = [cell for cell, draw in enumerate(inverter.guide) if draw is None]
    tried = 0
    for cell in impure[1:-1]:
        # just past a boundary's floor, inside the cell and off every floor
        i = bisect_left(floors, cell * width)
        u = floors[i] + 1
        if u >= (cell + 1) * width or u in floors:
            continue
        rng = Scripted([u])
        assert _draw(param, rng) == bisect_right(floors, u) - inverter.half - 1
        assert rng.asked == [64]
        tried += 1
    assert tried >= min(3, len(impure) - 2)


@pytest.mark.parametrize("param", FORCED)
def test_further_bits_come_after_the_call_in_draw_order(fresh, param):
    inverter = dpcore._inverter(*param)
    fine = _floors(_reference(inverter), 128)
    k = inverter.half
    (_, u1), (_, u2) = _banded(inverter, _floors(_reference(inverter), 64))[2:4]
    pure = next(cell for cell, draw in enumerate(inverter.guide) if draw is not None)
    u0 = pure << (64 - dpcore._GUIDE_BITS)
    e1, e2 = 0, 2**64 - 1
    rng = Scripted([u1, u0, u2], [e1, e2])
    draws = _draw(param, rng, size=3)
    assert rng.asked == [192, 64, 64]
    assert draws == [bisect_right(fine, u1 << 64 | e1) - k - 1, inverter.guide[pure],
                     bisect_right(fine, u2 << 64 | e2) - k - 1]


@pytest.mark.parametrize("param", FORCED + [pytest.param(_gauss(10**12), id="gauss-1e12"),
                                            pytest.param(_laplace(10**6), id="laplace-1e6")])
def test_past_the_table_the_draw_goes_on_from_fresh_bits(fresh, param):
    inverter = dpcore._inverter(*param)
    fine = _floors(_reference(inverter), 128)
    k, top = inverter.half, len(fine) - 1
    for u, last in ((0, 0), (2**64 - 1, 2**64 - 1)):
        j = 0 if u == 0 else top
        # a band's 64-bit extension is read first; the tail's bits follow
        banded = inverter.lows[j] <= u <= inverter.tops[j]
        rng = Scripted([u], [last] if banded else [])
        assert (u << 64 | last < fine[0]) if u == 0 else (u << 64 | last > fine[top])
        draw = _draw(param, rng)
        assert (draw < -k) if u == 0 else (draw > k)
        assert rng.asked[: 1 + banded] == [64] * (1 + banded)
        assert len(rng.asked) >= 4 + banded  # a geometric: its uniform, two decisions at least


@pytest.mark.parametrize("sampler, param, pmf", [
    pytest.param(sample_discrete_gaussian, s, _gaussian_pmf(s), id=f"gauss-{float(s):g}")
    for s in (4, 100)] + [
    pytest.param(sample_discrete_laplace, s, _laplace_pmf(s), id=f"laplace-{float(s):g}")
    for s in (2, 3)])
def test_capped_tables_keep_the_pmf(fresh, sampler, param, pmf):
    # K = 3: most draws of sigma2 = 100 land past the table, whose envelope
    # runs at rate 1/(floor(sigma) + 1)
    fresh(_TABLE_CAP=8)
    draws = sampler(param, substream(3, "capped", str(param)), size=20_000)
    tv, bound = _tv_and_bound(draws, pmf)
    assert tv <= bound, (tv, bound)
    assert sum(abs(x) > 3 for x in draws) > 0.05 * len(draws)


@pytest.mark.parametrize("param, draws", [
    pytest.param(_gauss(Fraction(1, 3)), 3000, id="gauss-1/3"),
    pytest.param(_gauss(4), 3000, id="gauss-4"),
    pytest.param(_gauss(RELEASE_SIGMA2), 300, id="gauss-release"),
    pytest.param(_laplace(2), 3000, id="laplace-2"),
    pytest.param(_laplace(Fraction(1, 3)), 3000, id="laplace-1/3"),
])
def test_coarse_brackets_give_the_same_draws(fresh, monkeypatch, param, draws):
    # 56 bits fewer in every recurrence: the bands widen until 14-100% of
    # draws need the exact path, and each draw must still come out the same
    full_rng, coarse_rng = substream(2, "one-for-one"), substream(2, "one-for-one")
    full = _draw(param, full_rng, size=draws)
    fresh(_GUARD_BITS=-56)
    finish, finished = dpcore._Inverter._finish, []
    monkeypatch.setattr(dpcore._Inverter, "_finish",
                        lambda self, *args: finished.append(1) or finish(self, *args))
    assert _draw(param, coarse_rng, size=draws) == full
    assert coarse_rng.getstate() == full_rng.getstate()
    assert len(finished) > 0.1 * draws


def test_exact_floor_matches_the_reference():
    rng = random.Random(4)
    values = [(0, 1), (1, 1), (45, 1), (44, 1), (1, 4096), (4095, 4096)]
    for _ in range(300):
        den = rng.randrange(1, 10**10)
        values.append((rng.randrange(50 * den), den))
    for num, den in values:
        assert dpcore._exp_floor(num, den, 64) == _scaled(_exp_ref(num, den), 64)
    for num, den in ((-1, 3), (-7, 3), (-1, 1000)):  # above 1, like a tail's exp(mu**2 / 4ad)
        assert dpcore._exp_floor(num, den, 128) == _scaled(_exp_ref(num, den), 128)


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.asked = []

    def getrandbits(self, k):
        self.asked.append(k)
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4096, 4097])
def test_a_bulk_read_splits_into_the_words_of_single_reads(n):
    bulk, single = random.Random(5), random.Random(5)
    words = bulk.getrandbits(64 * n).to_bytes(8 * n, "little")
    assert [int.from_bytes(words[8 * i: 8 * i + 8], "little") for i in range(n)] == [
        single.getrandbits(64) for _ in range(n)]
    assert bulk.getstate() == single.getstate()


@pytest.mark.parametrize("sampler, param", [(sample_discrete_gaussian, RELEASE_SIGMA2),
                                            (sample_discrete_laplace, 2)],
                         ids=["gauss-release", "laplace-2"])
def test_a_call_reads_its_uniforms_in_chunks(fresh, sampler, param):
    rng, single = CountingRandom(6), random.Random(6)
    sampler(param, rng, size=10_000)
    chunk = dpcore._CHUNK
    assert rng.asked == [64 * chunk, 64 * chunk, 64 * (10_000 - 2 * chunk)]
    for _ in range(10_000):
        single.getrandbits(64)
    assert rng.getstate() == single.getstate()


def test_small_budget_draws_make_no_exact_exp(fresh, monkeypatch):
    rng = substream(8, "small budget")
    sample_discrete_gaussian(SMALL_SIGMA2, rng)  # builds the table
    assert 2 * dpcore._inverter(*_gauss(SMALL_SIGMA2)).half + 2 < dpcore._TABLE_CAP
    calls = []
    exp_floor = dpcore._exp_floor
    monkeypatch.setattr(dpcore, "_exp_floor", lambda *args: calls.append(args) or exp_floor(*args))
    draws = sample_discrete_gaussian(SMALL_SIGMA2, rng, size=10_000)
    assert calls == []
    assert 0.9 < sum(x * x for x in draws) / 10_000 / SMALL_SIGMA2 < 1.1


def _deep_size(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(_deep_size(item, seen) for item in obj)
    return size


def test_table_memory_stays_bounded(fresh):
    rng = random.Random(7)
    gauss = sample_discrete_gaussian(10**12, rng, size=200)
    laplace = sample_discrete_laplace(10**6, rng, size=200)
    small = sample_discrete_gaussian(SMALL_SIGMA2, rng, size=200)
    assert 10**5 < sum(x * x for x in gauss) / 200 / 10**6 < 10**7  # sigma2 ~ 1e12
    assert 10**5 < sum(map(abs, laplace)) / 200 < 10**7
    assert 0.5 < sum(x * x for x in small) / 200 / SMALL_SIGMA2 < 2
    tables = [dpcore._inverter(*_gauss(10**12)), dpcore._inverter(*_laplace(10**6)),
              dpcore._inverter(*_gauss(SMALL_SIGMA2))]
    sizes = [_deep_size((table.lows, table.tops, table.guide), set()) for table in tables]
    assert all(size < 400_000 for size in sizes), sizes
