"""The Chebyshev-optimal integer redistribution solvers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from intopt_oracle import brute_force_oracle, intopt_simple, lower_bound

from inftda import ORDERS, intopt_fast
from inftda.intopt import intopt_level

vectors = st.lists(st.integers(min_value=-15, max_value=15), min_size=1, max_size=8)
targets = st.integers(min_value=0, max_value=30)
small_vectors = st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=4)
small_targets = st.integers(min_value=0, max_value=12)


def solve_both(x, c, order, seed=0):
    simple = intopt_simple(x, c, order, random.Random(seed))
    fast = intopt_fast(x, c, order, random.Random(seed))
    return simple, fast


class TestWorkedExample:
    def test_ascending_zeroes_the_small_entries(self):
        res = intopt_simple((0, -1, 1), 2, "ascending")
        assert res.values == (0, 0, 2)
        assert res.distance == 1

    def test_descending_preserves_the_large_entries(self):
        res = intopt_simple((0, -1, 1), 2, "descending")
        assert res.values == (1, 0, 1)
        assert res.distance == 1

    def test_random_order_is_still_optimal(self):
        res = intopt_simple((0, -1, 1), 2, "random", random.Random(11))
        assert sum(res.values) == 2
        assert min(res.values) >= 0
        assert res.distance == 1


class TestProperties:
    @given(x=vectors, c=targets, order=st.sampled_from(ORDERS))
    @settings(max_examples=300)
    def test_feasible_and_distance_reported_exactly(self, x, c, order):
        res = intopt_simple(x, c, order, random.Random(1))
        assert sum(res.values) == c
        assert min(res.values) >= 0
        assert res.distance == max(abs(a - b) for a, b in zip(x, res.values))

    @given(x=vectors, c=targets, order=st.sampled_from(ORDERS))
    @settings(max_examples=300)
    def test_fast_equals_simple_elementwise(self, x, c, order):
        simple, fast = solve_both(x, c, order, seed=2)
        assert fast.values == simple.values
        assert fast.distance == simple.distance

    @given(x=small_vectors, c=small_targets, order=st.sampled_from(ORDERS))
    @settings(max_examples=300)
    def test_distance_is_optimal(self, x, c, order):
        res = intopt_simple(x, c, order, random.Random(3))
        assert res.distance == brute_force_oracle(x, c)

    @given(x=vectors, c=targets)
    @settings(max_examples=300)
    def test_lower_bound_never_exceeds_distance(self, x, c):
        res = intopt_fast(x, c)
        assert lower_bound(x, c) <= res.distance

    @given(x=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8), c=targets)
    @settings(max_examples=200)
    def test_lower_bound_tight_when_mass_is_added(self, x, c):
        # with nothing to lift out of the negatives, an even spread is optimal
        if c >= sum(x):
            assert intopt_fast(x, c).distance == lower_bound(x, c)


class TestTwoCoordinates:
    def test_closed_form_equals_the_loop_on_a_grid(self):
        # every sign pattern, odd and even gaps, and both clamps, in every order;
        # the random order must also leave its rng where the loop leaves it
        for order in ORDERS:
            for a in range(-12, 13):
                for b in range(-12, 13):
                    for c in range(31):
                        rng_simple, rng_fast = random.Random(a * 31 + b), random.Random(a * 31 + b)
                        simple = intopt_simple((a, b), c, order, rng_simple)
                        fast = intopt_fast((a, b), c, order, rng_fast)
                        assert fast == simple, (a, b, c, order)
                        assert rng_fast.getstate() == rng_simple.getstate()

    def test_order_is_still_validated(self):
        with pytest.raises(ValueError):
            intopt_fast((1, 2), 2, "sideways")
        with pytest.raises(ValueError):
            intopt_fast((1, 2), 2, "random")  # rng required


class TestEdges:
    def test_single_coordinate(self):
        res = intopt_fast((7,), 3)
        assert res.values == (3,) and res.distance == 4

    def test_already_feasible_input_is_untouched(self):
        res = intopt_fast((1, 2, 3), 6)
        assert res.values == (1, 2, 3) and res.distance == 0

    def test_all_negative_input(self):
        res = intopt_fast((-4, -2), 0)
        assert res.values == (0, 0) and res.distance == 4

    def test_ascending_breaks_ties_by_index(self):
        # two equal smallest entries: the earlier index is clipped first
        res = intopt_fast((2, 2, 5), 5)
        assert res.values == (0, 1, 4)
        assert res.distance == 2

    def test_invalid_problems_rejected(self):
        # the order cases take the loop path here; d = 2 is TestTwoCoordinates'
        with pytest.raises(ValueError):
            intopt_fast((), 0)
        with pytest.raises(ValueError):
            intopt_fast((1,), -1)
        with pytest.raises(ValueError):
            intopt_fast((1, 2), 2.5)
        with pytest.raises(ValueError):
            intopt_fast((1, 2, 3), 2, "sideways")
        with pytest.raises(ValueError):
            intopt_fast((1, 2, 3), 2, "random")  # rng required

    def test_oracle_envelope_enforced(self):
        with pytest.raises(ValueError):
            brute_force_oracle((1, 2, 3, 4, 5), 3)
        with pytest.raises(ValueError):
            brute_force_oracle((1, 2), 13)


class TestLevel:
    @pytest.mark.parametrize("order", ORDERS)
    def test_equals_one_intopt_fast_per_segment(self, order):
        rng = random.Random(8)
        for case in range(500):
            segments = [[rng.randint(-20, 20) for _ in range(rng.choice((1, 2, 2, 3, 5)))]
                        for _ in range(rng.randint(0, 10))]
            totals = [rng.randint(0, 40) for _ in segments]
            noisy = [v for segment in segments for v in segment]
            level_rng, fast_rng = random.Random(case), random.Random(case)
            got = intopt_level(noisy, list(map(len, segments)), totals, order, level_rng)
            expected = [v for segment, total in zip(segments, totals)
                        for v in intopt_fast(segment, total, order, fast_rng).values]
            assert got == expected, (segments, totals)
            # a random order takes its shuffles from the rng in segment order
            assert level_rng.getstate() == fast_rng.getstate()

    def test_bad_levels_rejected(self):
        with pytest.raises(ValueError):
            intopt_level([1, 2, 3], [2, 1], [3, -1])  # a negative total
        with pytest.raises(ValueError):
            intopt_level([1, 2], [2, 0], [3, 0])  # an empty segment
        with pytest.raises(ValueError):
            intopt_level([1, 2], [1], [3])  # segments that miss a coordinate
        with pytest.raises(ValueError):
            intopt_level([1, 2], [2], [3, 4])  # a total without a segment
        with pytest.raises(ValueError):
            intopt_level([1, 2], [2], [3], "sideways")
        with pytest.raises(ValueError):
            intopt_level([1, 2], [2], [3], "random")  # rng required
        assert intopt_level([], [], []) == []
