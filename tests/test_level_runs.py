"""The level solvers' run walk against the frozen per-segment references.

``intopt.solve_runs`` cuts a level into maximal runs of equal segment size
and solves a run of pairs in one pass. Here the levels mix segment sizes 1 to
6 with runs of pairs at the start, in the middle and at the end, and each
level must equal the frozen references solved segment by segment: the loop of
``intopt_oracle`` for ``intopt_level`` in every order, on a same-seeded rng
that must end in the same state, and the projection of ``l2_oracle`` for the
``tda-l2`` solver.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from intopt_oracle import intopt_simple
from l2_oracle import euclidean_solve

from inftda import ORDERS
from inftda.baselines import _euclidean_solver
from inftda.intopt import intopt_level

# pairs this far from 0 make the loop's offsets huge, while their small gaps
# still let it finish in a round or two
SHIFT = 10**29

values = st.integers(min_value=-40, max_value=60)
totals = st.integers(min_value=0, max_value=120)
pairs = st.tuples(values, st.integers(min_value=-3, max_value=3), st.booleans(), totals)


@st.composite
def levels(draw):
    """Segments as (children, the same unshifted, total): runs of pairs at
    the start, in the middle and at the end, between runs of mixed sizes."""

    def pair_run():
        run = []
        for a, gap, shifted, total in draw(st.lists(pairs, max_size=5)):
            plain = [a, a + gap]
            run.append(([v + SHIFT for v in plain] if shifted else plain, plain, total))
        return run

    def mixed_run():
        run = []
        for size in draw(st.lists(st.integers(min_value=1, max_value=6), max_size=5)):
            plain = draw(st.lists(values, min_size=size, max_size=size))
            run.append((plain, plain, draw(totals)))
        return run

    return pair_run() + mixed_run() + pair_run() + mixed_run() + pair_run()


def flat(level, shifted=True):
    noisy = [v for x, plain, _ in level for v in (x if shifted else plain)]
    return noisy, [len(x) for x, _, _ in level], [total for _, _, total in level]


def check_intopt_level(level, order, seed):
    noisy, sizes, level_totals = flat(level)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    got = intopt_level(noisy, sizes, level_totals, order, rng)
    expected = [v for x, _, total in level
                for v in intopt_simple(x, total, order, reference_rng).values]
    assert got == expected
    assert rng.getstate() == reference_rng.getstate()


def check_euclidean_solver(level):
    noisy, sizes, level_totals = flat(level, shifted=False)
    got = _euclidean_solver(noisy, sizes, level_totals, "ascending", None)
    assert got == [v for _, plain, total in level for v in euclidean_solve(plain, total)]


@given(level=levels(), order=st.sampled_from(ORDERS), seed=st.integers(0, 2**32))
@settings(max_examples=400, deadline=None)
def test_intopt_level_equals_the_frozen_loop_per_segment(level, order, seed):
    check_intopt_level(level, order, seed)


@given(level=levels())
@settings(max_examples=300, deadline=None)
def test_euclidean_solver_equals_the_frozen_projection_per_segment(level):
    check_euclidean_solver(level)


@pytest.mark.parametrize("sizes", [(1, 3), (3, 1), (1, 1, 2)])
@pytest.mark.parametrize("order", ORDERS)
def test_levels_that_lengths_alone_take_for_pairs(sizes, order):
    # levels that a check of lengths alone would take for all pairs: (1, 3)
    # and (3, 1) average two children a segment, and (1, 1, 2) ends in a pair
    rng = random.Random(sum(sizes))
    for seed in range(200):
        level = []
        for size in sizes:
            plain = [rng.randint(-40, 60) for _ in range(size)]
            level.append((plain, plain, rng.choice((0, rng.randint(0, 120)))))
        check_intopt_level(level, order, seed)
        check_euclidean_solver(level)


BAD_LEVELS = {
    "a size 0": ([1, 2, 3, 4], [2, 0, 2], [3, 0, 3]),
    "sizes short of the input": ([1, 2, 3, 4, 5], [2, 2], [3, 3]),
    "sizes past the input": ([1, 2, 3, 4], [2, 2, 2], [3, 3, 3]),
    "a total too many": ([1, 2, 3, 4], [2, 2], [3, 3, 3]),
    "a negative total": ([1, 2, 3, 4], [2, 2], [3, -1]),
}


@pytest.mark.parametrize("noisy, sizes, level_totals", BAD_LEVELS.values(), ids=BAD_LEVELS)
def test_bad_levels_are_refused_before_the_rng_is_read(noisy, sizes, level_totals):
    rng = random.Random(9)
    state = rng.getstate()
    with pytest.raises(ValueError):
        intopt_level(noisy, sizes, level_totals, "random", rng)
    assert rng.getstate() == state
    with pytest.raises(ValueError):
        _euclidean_solver(noisy, sizes, level_totals, "random", None)


def test_random_order_without_an_rng_is_refused():
    with pytest.raises(ValueError):
        intopt_level([1, 2], [2], [3], "random")
    with pytest.raises(ValueError):
        intopt_level([1], [1], [3], "random")  # even where no segment shuffles
