"""Synthetic benchmark dataset generation."""

import math
from collections import Counter

import pytest

from inftda import ConfigError, SPARSITY_NAMES, SynthSpec, gen_dataset, gen_flows, gen_partition


class TestSynthSpec:
    def test_depth_defaults(self):
        assert SynthSpec(kind="binary").depth == 8
        assert SynthSpec(kind="random").depth == 4
        assert SynthSpec(kind="binary", levels=3).depth == 3

    def test_named_sparsities(self):
        assert SPARSITY_NAMES == {"complete": 1.0, "dense": 0.5, "sparse": 0.01}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "triangular"},
            {"levels": -1},
            {"k_min": 1},
            {"k_min": 5, "k_max": 4},
            {"sparsity": 0.0},
            {"sparsity": 1.5},
            {"exponent": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SynthSpec(**kwargs)


def arities(hier, level):
    """{area at ``level``: its child count}, read off the leaf paths."""
    arity = Counter(up for up, _ in {hier.path(leaf)[level:level + 2] for leaf in hier.leaves})
    assert sorted(arity) == sorted(hier.areas(level))
    return arity


class TestPartitions:
    def test_binary_shape(self):
        spec = SynthSpec(kind="binary", levels=4)
        hier = gen_partition(spec, 0, "origin")
        assert hier.levels == 4
        assert len(hier.leaves) == 16
        for level in range(4):
            assert set(arities(hier, level).values()) == {2}

    def test_binary_is_seed_independent(self):
        spec = SynthSpec(kind="binary", levels=3)
        a = gen_partition(spec, 0, "origin")
        b = gen_partition(spec, 99, "destination")
        assert a.leaves == b.leaves

    def test_random_arities_within_bounds(self):
        spec = SynthSpec(kind="random", levels=3, k_min=2, k_max=5)
        hier = gen_partition(spec, 7, "origin")
        assert hier.levels == 3
        for level in range(3):
            assert all(2 <= k <= 5 for k in arities(hier, level).values())

    def test_random_sides_draw_independently(self):
        spec = SynthSpec(kind="random", levels=2)
        origin = gen_partition(spec, 7, "origin")
        dest = gen_partition(spec, 7, "destination")
        assert origin.leaves != dest.leaves

    def test_random_is_deterministic_per_seed(self):
        spec = SynthSpec(kind="random", levels=2)
        assert gen_partition(spec, 7, "origin").leaves == gen_partition(spec, 7, "origin").leaves
        assert gen_partition(spec, 7, "origin").leaves != gen_partition(spec, 8, "origin").leaves


class TestFlows:
    def test_support_size_is_exact(self):
        for sparsity in (1.0, 0.5, 0.01):
            spec = SynthSpec(kind="binary", levels=4, sparsity=sparsity)
            table = gen_dataset(spec, 1)
            assert len(table) == math.ceil(sparsity * 256)
            assert table.universe_size == 256

    def test_flows_are_positive_integers(self):
        table = gen_dataset(SynthSpec(kind="binary", levels=4, sparsity=0.3), 2)
        assert all(isinstance(v, int) and v >= 1 for v in table.counts.values())

    def test_deterministic_per_seed(self):
        spec = SynthSpec(kind="random", levels=2, sparsity=0.5)
        assert gen_dataset(spec, 5).counts == gen_dataset(spec, 5).counts
        assert gen_dataset(spec, 5).counts != gen_dataset(spec, 6).counts

    def test_heavier_tail_means_larger_totals(self):
        light = gen_dataset(SynthSpec(kind="binary", levels=5, exponent=3.0), 0)
        heavy = gen_dataset(SynthSpec(kind="binary", levels=5, exponent=1.05), 0)
        assert heavy.n > light.n

    def test_pairs_come_from_the_leaf_universe(self, origin_hier, dest_hier):
        spec = SynthSpec(kind="random", levels=2, sparsity=0.5)
        table = gen_flows(origin_hier, dest_hier, spec, 3)
        assert len(table) == math.ceil(0.5 * 9)
        for (o, d) in table.counts:
            assert o in origin_hier.leaves and d in dest_hier.leaves
