"""A release runs on one CPU.

``release`` never forks and reads no CPU count, so its files and levels are
the same at any CPU count. The CPU count is faked here by replacing
``os.sched_getaffinity``, and every fork goes through a counting wrapper, so
each release test also shows that nothing forked. The sweep's worker pool,
the one place that forks, is checked in ``test_parallel_sweep.py``.
"""

import itertools
import json
import os
from types import SimpleNamespace

import pytest

from inftda import (
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    SynthSpec,
    build_tree,
    gen_dataset,
    release,
)
from inftda import evaluate, topdown
from inftda.evaluate import run_release
from inftda.cli import main

BUDGET = PrivacyBudget.from_eps_delta(1.0, 1e-8)


@pytest.fixture(scope="module")
def tree():
    tree = build_tree(gen_dataset(SynthSpec(kind="binary", levels=6, sparsity=0.5), 1))
    # the true tree reaches the block frontier above its leaves
    assert any(len(level) >= topdown.BLOCK_NODES for level in tree.levels[:-1])
    return tree


def _without_wall_ms(per_level):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in per_level]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("split")
    out = root / "ds"
    assert main(["synth", "--kind", "binary", "--levels", "6", "--sparsity", "0.5",
                 "--seed", "1", "--out", str(out)]) == 0
    data = root / "data.bin"
    assert main(["ingest", "--hierarchy-o", str(out / "origin_hierarchy.csv"),
                 "--hierarchy-d", str(out / "destination_hierarchy.csv"),
                 "--trips", str(out / "trips.csv"), "--out", str(data)]) == 0
    return data


CLI_RUNS = {
    "inftda-asc": ("--mechanism", "inftda", "--order", "asc"),
    "inftda-desc": ("--mechanism", "inftda", "--order", "desc"),
    "inftda-random": ("--mechanism", "inftda", "--order", "random"),
    "tda-l2": ("--mechanism", "tda-l2"),
    "tda-linf-random": ("--mechanism", "tda-linf-random"),
    "unbounded": ("--mechanism", "inftda", "--privacy", "unbounded"),
    "origin-tree": ("--mechanism", "inftda", "--tree", "origin"),
}


@pytest.mark.parametrize("argv", list(CLI_RUNS.values()), ids=list(CLI_RUNS))
def test_release_files_identical_at_1_2_and_4_cpus(dataset, tmp_path, forks, argv):
    files = {}
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        out = tmp_path / f"rel{cpus}.csv"
        assert main(["release", "--data", str(dataset), "--epsilon", "1", "--delta", "1e-8",
                     "--seed", "5", *argv, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / f"rel{cpus}.meta.json").read_text())
        meta["per_level"] = _without_wall_ms(meta["per_level"])
        files[cpus] = (out.read_bytes(), meta)
    assert forks.count == 0
    assert files[1] == files[2] == files[4]


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("privacy", ["bounded", "unbounded"])
def test_released_levels_identical_at_1_2_and_4_cpus(tree, forks, order, privacy):
    config = ReleaseConfig(budget=BUDGET, sensitivity=SensitivityModel(privacy),
                           order=order, seed=3)
    runs = {}
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        rel = release(tree, config)
        runs[cpus] = ([sorted(level.items()) for level in rel.tree.levels],
                      _without_wall_ms(rel.per_level))
    assert forks.count == 0
    assert runs[1] == runs[2] == runs[4]


@pytest.mark.parametrize("mechanism", ["inftda", "tda-l2", "tda-linf-random"])
@pytest.mark.parametrize("privacy", ["bounded", "unbounded"])
def test_two_blocks_release_identically_at_1_2_and_4_cpus(tree, forks, monkeypatch,
                                                          mechanism, privacy):
    # the frontier is the first depth with 2 nodes, so two blocks hold almost
    # the whole tree
    monkeypatch.setattr(topdown, "BLOCK_NODES", 2)
    config = ReleaseConfig(budget=BUDGET, sensitivity=SensitivityModel(privacy), seed=7)
    runs = {}
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        rel = run_release(mechanism, None, tree.mode, tree, config)
        runs[cpus] = [sorted(level.items()) for level in rel.tree.levels]
    assert forks.count == 0
    assert runs[1] == runs[2] == runs[4]


@pytest.mark.parametrize("mechanism", ["inftda", "tda-l2", "tda-linf-random"])
def test_release_reads_no_cpu_count(tree, monkeypatch, mechanism):
    def no_cpu_count(*args):
        raise AssertionError("a release read the CPU count")

    monkeypatch.setattr(os, "sched_getaffinity", no_cpu_count)
    monkeypatch.setattr(os, "cpu_count", no_cpu_count)
    monkeypatch.setattr(evaluate, "usable_cpus", no_cpu_count)
    rel = run_release(mechanism, None, tree.mode, tree, ReleaseConfig(budget=BUDGET, seed=0))
    assert rel.per_level[-1]["node_count"] > 0


def test_wall_ms_below_the_frontier_sums_over_blocks(tree, forks, monkeypatch):
    # a clock that ticks one second per reading: every timed depth takes
    # exactly 1000 ms in each block that works on it, and the first depth
    # with 2 nodes roots two blocks
    clock = itertools.count()
    monkeypatch.setattr(topdown, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(topdown, "BLOCK_NODES", 2)
    forks.cpus(2)
    rel = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    assert forks.count == 0
    counts = [row["node_count"] for row in rel.per_level]
    first = next(d for d in range(1, tree.depth + 1) if counts[d - 1] >= 2)
    assert [row["wall_ms"] for row in rel.per_level] == (
        [1000.0] * first + [2000.0] * (tree.depth + 1 - first)
    )
