"""Acceptance gate: the ten guarantees this package ships with.

One test per guarantee (two for the error envelope, C7), each at its stated
tolerance, so a verbose pytest run gives a pass/fail line per criterion. The
slow criteria share module-scoped synthetic datasets. Frozen totals and the
budget constant were produced by independent oracles (exhaustive search,
bisection, hand traces) and pinned.
"""

import itertools
import math
import random
import statistics
import time

import pytest
from intopt_oracle import brute_force_oracle, intopt_simple
from rollup_oracle import parent_key

from inftda import (
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    SynthSpec,
    build_tree,
    eps_from_rho,
    false_discovery_rate,
    gen_dataset,
    intopt_fast,
    max_abs_error_per_level,
    release,
    rho_from_eps_delta,
    run_experiment,
    run_mechanism,
    sample_discrete_gaussian,
    theoretical_error_envelope,
    validate_consistency,
)
from inftda.dpcore import derive_seed, substream

# Target user totals for the two benchmark regimes. The generator matches
# universe shape exactly but the flow tail exponent is a free parameter, so
# totals are only required to land within a factor of ten.
BINARY_COMPLETE_USERS = 1_051_271
RANDOM_SPARSE_USERS = 67_840


@pytest.fixture(scope="module")
def binary_complete():
    """Complete binary benchmark: 256x256 leaves, tree depth 16."""
    table = gen_dataset(SynthSpec(kind="binary"), seed=0)
    return table, build_tree(table)


@pytest.fixture(scope="module")
def random_sparse():
    """Sparse random-arity benchmark with a heavy flow tail.

    Seed 285 lands the leaf universe near the random-sparse target regime
    (~190k pairs, ~1% occupied); exponent 1.05 gives flows large enough to
    survive the per-level noise at eps=1.
    """
    spec = SynthSpec(kind="random", sparsity=0.01, exponent=1.05)
    table = gen_dataset(spec, seed=285)
    return table, build_tree(table)


def test_criterion_01_optimizer_matches_exhaustive_search():
    """intopt_simple is optimal and feasible on the full small-problem grid."""
    start = time.perf_counter()
    rng = random.Random(17)
    checked = 0
    for d in (2, 3):
        for x in itertools.product(range(-3, 4), repeat=d):
            for c in range(7):
                best = brute_force_oracle(x, c)
                for order in ("ascending", "descending", "random"):
                    res = intopt_simple(x, c, order, rng if order == "random" else None)
                    assert sum(res.values) == c
                    assert all(v >= 0 for v in res.values)
                    assert max(abs(a - b) for a, b in zip(res.values, x)) == res.distance
                    assert res.distance == best, (x, c, order)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE C1 PASS optimal on {checked} instances in {elapsed:.1f}s")


def test_criterion_02_fast_solver_equals_reference_solver():
    """intopt_fast reproduces intopt_simple elementwise on 10^4 instances."""
    start = time.perf_counter()
    rng = random.Random(2024)
    orders = ("ascending", "descending", "random")
    for i in range(10_000):
        d = rng.randint(1, 50)
        x = [rng.randint(-20, 20) for _ in range(d)]
        c = rng.randint(0, 200)
        order = orders[i % 3]
        seed = rng.getrandbits(32)
        # paired rngs so the random order visits both solvers identically
        a = intopt_simple(x, c, order, random.Random(seed))
        b = intopt_fast(x, c, order, random.Random(seed))
        assert a.values == b.values, (x, c, order)
        assert a.distance == b.distance
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE C2 PASS 10000 instances agree in {elapsed:.1f}s")


def test_criterion_03_worked_example():
    """The hand-traced instance: x=(0,-1,1), c=2 resolves to (0,0,2) at distance 1."""
    for solver in (intopt_simple, intopt_fast):
        res = solver((0, -1, 1), 2, "ascending")
        assert res.distance == 1
        assert res.values == (0, 0, 2)
    print("ACCEPTANCE C3 PASS worked example (0,-1,1),c=2 -> (0,0,2) at distance 1")


def test_criterion_04_releases_are_consistent_and_orphan_free():
    """100 seeded releases: zero consistency violations, exact root, no orphans."""
    epsilons = (0.5, 1.0, 2.0)
    orders = ("ascending", "descending", "random")
    modes = ("destination", "origin")
    spec = SynthSpec(kind="random", levels=2, sparsity=0.5, exponent=1.5)
    for i in range(100):
        table = gen_dataset(spec, seed=i)
        tree = build_tree(table, mode=modes[i % 2])
        budget = PrivacyBudget.from_eps_delta(epsilons[i % 3], 1e-8)
        rel = release(tree, ReleaseConfig(budget=budget, order=orders[i % 3], seed=i))
        assert validate_consistency(rel.tree) == []
        assert rel.tree.n == table.n  # bounded mode keeps the root exact
        for depth in range(1, rel.tree.depth + 1):
            for key in rel.tree.levels[depth]:
                assert parent_key(rel.tree, key, depth) in rel.tree.levels[depth - 1]
    print("ACCEPTANCE C4 PASS 100 releases consistent, exact roots, no orphans")


def test_criterion_05_budget_accounting_round_trip():
    """rho <-> (eps, delta) inverts to 1e-9; eps=1, delta=1e-8 matches bisection."""
    rng = random.Random(55)
    for _ in range(1000):
        eps = 10.0 ** rng.uniform(-3, 3)
        delta = 10.0 ** rng.uniform(-12, -2)
        rho = rho_from_eps_delta(eps, delta)
        assert abs(eps_from_rho(rho, delta) - eps) <= 1e-9
        rho0 = 10.0 ** rng.uniform(-6, 2)
        assert abs(rho_from_eps_delta(eps_from_rho(rho0, delta), delta) - rho0) <= 1e-9
    # Independent oracle: the forward map rho -> rho + 2*sqrt(rho*ln(1/delta))
    # is strictly increasing, so bisection pins its inverse at eps=1.
    big_l = math.log(1e8)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid + 2.0 * math.sqrt(mid * big_l) < 1.0:
            lo = mid
        else:
            hi = mid
    oracle = (lo + hi) / 2.0
    got = rho_from_eps_delta(1.0, 1e-8)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 0.013215362852827305) < 1e-6  # frozen from the oracle
    print(f"ACCEPTANCE C5 PASS round trips <= 1e-9; rho(1, 1e-8) = {got:.12f}")


def test_criterion_06_sampler_statistics():
    """10^6 draws at sigma^2 = 4: variance, mean, and tail inside their bounds."""
    rng = substream(2026, "sampler-acceptance")
    n = 10**6
    total = total_sq = tail = 0
    for _ in range(n):
        v = sample_discrete_gaussian(4, rng)
        total += v
        total_sq += v * v
        tail += v >= 4
    mean = total / n
    var = total_sq / n - mean * mean
    tail_p = tail / n
    assert var <= 4.05
    assert abs(mean) <= 0.02
    assert tail_p <= math.exp(-2) + 0.01
    print(f"ACCEPTANCE C6 PASS var={var:.4f} mean={mean:+.5f} Pr[Z>=4]={tail_p:.5f}")


def test_criterion_07_error_envelope_holds(binary_complete):
    """Per-level max error stays under the beta=0.01 envelope in >= 95/100 runs."""
    table, tree = binary_complete
    budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
    env = [
        theoretical_error_envelope(level, tree, budget)
        for level in range(tree.depth + 1)
    ]
    hits = 0
    for r in range(100):
        config = ReleaseConfig(budget=budget, seed=derive_seed(0, "repeat", r))
        errs = max_abs_error_per_level(tree, release(tree, config).tree.levels)
        hits += all(e <= bound for e, bound in zip(errs, env))
    assert hits >= 95
    print(f"ACCEPTANCE C7 PASS envelope held in {hits}/100 runs")


def test_criterion_07_envelope_holds_on_irregular_and_unbounded_trees(random_sparse):
    """The envelope also holds in >= 95/100 runs on the random-arity tree and,
    root included, on an unbounded m=4 binary tree; there the root is noised,
    so the envelope a sweep report states for it is positive."""
    binary = gen_dataset(SynthSpec(kind="binary", levels=6), seed=0)
    unbounded = SensitivityModel("unbounded", 4)
    cases = [
        ("random-sparse", random_sparse[1], PrivacyBudget.from_eps_delta(1.0, 1e-8),
         SensitivityModel()),
        ("unbounded-m4", build_tree(binary), PrivacyBudget.from_eps_delta(0.5, 1e-8), unbounded),
    ]
    for name, tree, budget, sens in cases:
        env = [theoretical_error_envelope(level, tree, budget, sens)
               for level in range(tree.depth + 1)]
        hits = 0
        for r in range(100):
            config = ReleaseConfig(budget=budget, sensitivity=sens,
                                   seed=derive_seed(0, "repeat", r))
            errs = max_abs_error_per_level(tree, release(tree, config).tree.levels)
            hits += all(e <= bound for e, bound in zip(errs, env))
        assert hits >= 95, name
        print(f"ACCEPTANCE C7 PASS {name}: envelope held in {hits}/100 runs")
    # env is still the unbounded tree's, the last case
    [report] = run_experiment(binary, mechanisms=["inftda"], epsilons=[0.5], repeats=1,
                              sens=unbounded)
    assert report.envelope == env and report.envelope[0] > 0


def test_criterion_08_ascending_order_cuts_false_discoveries(random_sparse):
    """Leaf FDR: ascending beats the random-order variant; sh is exactly zero."""
    table, tree = random_sparse
    budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
    sens = SensitivityModel()
    leaf = tree.depth
    asc, rnd, wins = [], [], 0
    for r in range(10):
        seed = derive_seed(42, "repeat", r)
        lv_a, _ = run_mechanism("inftda", table, tree, budget, sens, "ascending", seed)
        lv_r, _ = run_mechanism("tda-linf-random", table, tree, budget, sens, "ascending", seed)
        fa = false_discovery_rate(tree, lv_a, leaf)
        fr = false_discovery_rate(tree, lv_r, leaf)
        asc.append(fa)
        rnd.append(fr)
        wins += fa < fr
        lv_s, _ = run_mechanism("sh", table, tree, budget, sens, "ascending", seed)
        for depth in range(leaf + 1):
            assert false_discovery_rate(tree, lv_s, depth) == 0.0
    mean_asc, mean_rnd = statistics.fmean(asc), statistics.fmean(rnd)
    assert mean_asc <= mean_rnd
    assert wins >= 8
    print(
        f"ACCEPTANCE C8 PASS leaf FDR {mean_asc:.2f} <= {mean_rnd:.2f}, "
        f"{wins}/10 per-seed wins, sh FDR exactly 0"
    )


def test_criterion_09_baseline_crossover(binary_complete):
    """Flat Gaussian loses at level 1; sh wins at the leaves; both over 10 seeds."""
    table, tree = binary_complete
    budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
    sens = SensitivityModel()
    leaf = tree.depth
    errs = {"inftda": [], "vanilla-gauss": [], "sh": []}
    for r in range(10):
        seed = derive_seed(0, "repeat", r)
        for mech in errs:
            levels, _ = run_mechanism(mech, table, tree, budget, sens, "ascending", seed)
            errs[mech].append(max_abs_error_per_level(tree, levels))
    level1 = {m: statistics.fmean(e[1] for e in runs) for m, runs in errs.items()}
    at_leaf = {m: statistics.fmean(e[leaf] for e in runs) for m, runs in errs.items()}
    assert level1["vanilla-gauss"] > level1["inftda"]
    assert at_leaf["inftda"] > at_leaf["sh"]
    print(
        f"ACCEPTANCE C9 PASS level-1 error {level1['vanilla-gauss']:.1f} (flat) > "
        f"{level1['inftda']:.1f} (topdown); leaf error {at_leaf['inftda']:.1f} "
        f"(topdown) > {at_leaf['sh']:.1f} (sh)"
    )


def test_criterion_10_performance_and_regime_shapes(random_sparse):
    """Sparse-regime release under 60s; universe shapes exact; totals within 10x."""
    table, tree = random_sparse
    budget = PrivacyBudget.from_eps_delta(1.0, 1e-8)
    start = time.perf_counter()
    rel = release(tree, ReleaseConfig(budget=budget, seed=0))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert validate_consistency(rel.tree) == []

    binary = gen_dataset(SynthSpec(kind="binary"), seed=0)
    assert binary.universe_size == 65_536
    assert len(binary) == 65_536  # complete: every pair occupied
    sparse_binary = gen_dataset(SynthSpec(kind="binary", sparsity=0.01), seed=0)
    assert len(sparse_binary) == 656  # ceil(0.01 * 65536)
    assert table.universe_size == 193_440
    assert len(table) == math.ceil(0.01 * table.universe_size) == 1_935

    # totals: frozen for determinism, order of magnitude against the targets
    assert binary.n == 127_892
    assert table.n == 16_645
    assert BINARY_COMPLETE_USERS / 10 <= binary.n <= BINARY_COMPLETE_USERS * 10
    assert RANDOM_SPARSE_USERS / 10 <= table.n <= RANDOM_SPARSE_USERS * 10
    print(
        f"ACCEPTANCE C10 PASS release in {elapsed:.1f}s; shapes exact; "
        f"totals {binary.n} and {table.n} within 10x of targets"
    )
