"""Accounting conversions, sensitivity table, and the exact samplers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inftda import (
    ConfigError,
    PrivacyBudget,
    SensitivityModel,
    derive_seed,
    eps_from_rho,
    per_level_sigma2,
    rho_from_eps_delta,
    sample_discrete_gaussian,
    sample_discrete_laplace,
    stability_threshold,
    substream,
    theoretical_error_envelope,
)

# Oracle-frozen constants (bisection on the forward conversion; see the
# acceptance suite for the independent derivation).
RHO_EPS1_DELTA1E8 = 0.013215362852827305
THRESHOLD_EPS1_DELTA1E8 = 39.22765584902462
SIGMA2_T16_EPS1 = 1210.7121218073062


class TestBudgetConversion:
    def test_frozen_rho_at_eps1_delta1e8(self):
        assert rho_from_eps_delta(1.0, 1e-8) == pytest.approx(RHO_EPS1_DELTA1E8, abs=1e-15)

    def test_round_trip_recovers_epsilon(self):
        for eps in (0.01, 0.1, 1.0, 5.0, 50.0):
            for delta in (1e-12, 1e-8, 1e-3):
                rho = rho_from_eps_delta(eps, delta)
                assert eps_from_rho(rho, delta) == pytest.approx(eps, abs=1e-9)

    @given(
        eps=st.floats(min_value=1e-3, max_value=100.0),
        delta=st.floats(min_value=1e-12, max_value=0.1),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, eps, delta):
        rho = rho_from_eps_delta(eps, delta)
        assert 0 < rho < eps
        assert abs(eps_from_rho(rho, delta) - eps) <= 1e-9

    def test_zero_maps_to_zero(self):
        assert rho_from_eps_delta(0.0, 1e-8) == 0.0
        assert eps_from_rho(0.0, 1e-8) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rho_from_eps_delta(-1.0, 1e-8)
        with pytest.raises(ValueError):
            rho_from_eps_delta(1.0, 0.0)
        with pytest.raises(ValueError):
            rho_from_eps_delta(1.0, 1.0)
        with pytest.raises(ValueError):
            eps_from_rho(-0.1, 1e-8)


class TestPrivacyBudget:
    def test_from_rho_without_delta_has_no_epsilon(self):
        b = PrivacyBudget.from_rho(0.5)
        assert b.rho == 0.5
        assert b.epsilon is None and b.delta is None

    def test_from_rho_with_delta_derives_epsilon(self):
        b = PrivacyBudget.from_rho(0.5, 1e-6)
        assert b.epsilon == pytest.approx(eps_from_rho(0.5, 1e-6))

    def test_from_eps_delta(self):
        b = PrivacyBudget.from_eps_delta(1.0, 1e-8)
        assert b.rho == pytest.approx(RHO_EPS1_DELTA1E8, abs=1e-15)
        assert b.epsilon == 1.0 and b.delta == 1e-8

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudget.from_rho(0.0)
        with pytest.raises(ValueError):
            PrivacyBudget.from_eps_delta(0.0, 1e-8)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_budget_rejected(self, bad):
        with pytest.raises(ValueError):
            PrivacyBudget.from_rho(bad)
        with pytest.raises(ValueError):
            PrivacyBudget.from_rho(bad, 1e-8)
        with pytest.raises(ValueError):
            PrivacyBudget.from_eps_delta(bad, 1e-8)


class TestSensitivityModel:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_gs2_squared_all_four_cells(self, m):
        assert SensitivityModel("bounded", m, True).gs2_squared == 2 * m
        assert SensitivityModel("unbounded", m, True).gs2_squared == m
        assert SensitivityModel("bounded", m, False).gs2_squared == 2 * m * m
        assert SensitivityModel("unbounded", m, False).gs2_squared == m * m

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            SensitivityModel("open", 1)
        with pytest.raises(ValueError):
            SensitivityModel("bounded", 0)
        with pytest.raises(ValueError):
            SensitivityModel("bounded", 1.5)


class TestCalibration:
    def test_per_level_sigma2_frozen(self):
        budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
        got = per_level_sigma2(budget, SensitivityModel(), 16)
        assert got == pytest.approx(SIGMA2_T16_EPS1, rel=1e-12)

    def test_per_level_sigma2_formula(self):
        budget = PrivacyBudget.from_rho(0.25)
        sens = SensitivityModel("unbounded", 3, False)
        assert per_level_sigma2(budget, sens, 10) == pytest.approx(9 * 10 / 0.5)
        with pytest.raises(ValueError):
            per_level_sigma2(budget, sens, 0)

    def test_stability_threshold_frozen(self):
        assert stability_threshold(1.0, 1e-8) == pytest.approx(
            THRESHOLD_EPS1_DELTA1E8, rel=1e-12
        )

    def test_stability_threshold_formula(self):
        assert stability_threshold(2.0, 1e-6) == pytest.approx(
            1.0 + math.log(2e6), rel=1e-12
        )
        with pytest.raises(ValueError):
            stability_threshold(0.0, 1e-6)


class TestSamplers:
    def test_gaussian_moments(self):
        rng = substream(5, "unit-dgauss")
        n = 20000
        draws = [sample_discrete_gaussian(4, rng) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / n
        # scale bugs (sigma vs sigma^2) land at 2 or 16; the band catches both
        assert abs(mean) < 0.05
        assert 3.7 < var < 4.3

    def test_gaussian_parameter_types_agree(self):
        for sigma2 in (4, 4.0, Fraction(4)):
            rng = substream(9, "types")
            draws = [sample_discrete_gaussian(sigma2, rng) for _ in range(50)]
            if sigma2 == 4:
                reference = draws
            assert draws == reference

    def test_laplace_geometric_ratio(self):
        rng = substream(6, "unit-dlap")
        n = 40000
        draws = [sample_discrete_laplace(2, rng) for _ in range(n)]
        p0 = draws.count(0) / n
        p1 = draws.count(1) / n
        # successive magnitudes thin by exp(-1/scale)
        assert p0 / p1 == pytest.approx(math.exp(0.5), rel=0.1)
        assert abs(sum(draws) / n) < 0.1

    def test_invalid_parameters(self):
        rng = substream(0)
        for bad in (0, -1, Fraction(-1, 3), -0.5):
            for size in (None, 4):
                with pytest.raises(ValueError):
                    sample_discrete_gaussian(bad, rng, size=size)
                with pytest.raises(ValueError):
                    sample_discrete_laplace(bad, rng, size=size)


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = substream(7, "x", 1)
        b = substream(7, "x", 1)
        assert [a.randrange(1000) for _ in range(20)] == [
            b.randrange(1000) for _ in range(20)
        ]

    def test_different_keys_differ(self):
        a = substream(7, "x", 1)
        b = substream(7, "x", 2)
        c = substream(8, "x", 1)
        ours = [a.randrange(10**9) for _ in range(8)]
        assert ours != [b.randrange(10**9) for _ in range(8)]
        assert ours != [c.randrange(10**9) for _ in range(8)]

    def test_derive_seed_is_stable_64_bit(self):
        s = derive_seed(3, "repeat", 4)
        assert s == derive_seed(3, "repeat", 4)
        assert 0 <= s < 2**64
        assert s != derive_seed(3, "repeat", 5)


BUDGET = PrivacyBudget.from_rho(1.0)


@pytest.mark.parametrize(
    "check",
    [
        lambda: PrivacyBudget.from_rho(0.0),
        lambda: PrivacyBudget.from_rho(1.0, delta=1.5),
        lambda: PrivacyBudget.from_eps_delta(float("inf"), 1e-8),
        lambda: PrivacyBudget.from_eps_delta(1.0, 0.0),
        lambda: eps_from_rho(-1.0, 1e-8),
        lambda: rho_from_eps_delta(-1.0, 1e-8),
        lambda: SensitivityModel(privacy="sideways"),
        lambda: SensitivityModel(m=0),
        lambda: per_level_sigma2(BUDGET, SensitivityModel(), 0),
        lambda: stability_threshold(0.0, 1e-8),
        lambda: sample_discrete_gaussian(0, random.Random(0)),
        lambda: sample_discrete_laplace(-1, random.Random(0)),
        lambda: theoretical_error_envelope(1, 1, 4, BUDGET),
        lambda: theoretical_error_envelope(1, 2, 4, BUDGET, beta=1.0),
        lambda: theoretical_error_envelope(5, 2, 4, BUDGET),
        lambda: theoretical_error_envelope(-1, 2, 4, BUDGET),
    ],
    ids=["rho-0", "rho-delta-1.5", "eps-inf", "delta-0", "eps-from-rho-negative",
         "rho-from-eps-negative", "privacy-sideways", "m-0", "sigma2-depth-0",
         "threshold-eps-0", "gauss-sigma2-0", "laplace-scale-negative",
         "envelope-branching-1", "envelope-beta-1", "envelope-level-too-deep",
         "envelope-level-negative"],
)
def test_parameter_check_raises_config_error(check):
    # a ConfigError is what the CLI turns into exit 4; it is also a ValueError
    with pytest.raises(ConfigError):
        check()
