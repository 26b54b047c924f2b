"""The subtree split of the top-down release.

``release`` deals the blocks below its block frontier (the first depth with
``BLOCK_NODES`` released nodes) over the usable CPUs, one forked worker per
group beyond the first. The CPU count is faked here by replacing
``os.sched_getaffinity``; every fork goes through a counting wrapper, so each
test also shows whether the split ran at all.
"""

import itertools
import json
import os
import threading
from types import SimpleNamespace

import pytest

from inftda import (
    ConfigError,
    DataError,
    PrivacyBudget,
    ReleaseConfig,
    SensitivityModel,
    SynthSpec,
    build_tree,
    gen_dataset,
    release,
)
from inftda import topdown
from inftda.evaluate import run_release
from inftda.cli import main

BUDGET = PrivacyBudget.from_eps_delta(1.0, 1e-8)


@pytest.fixture(scope="module")
def tree():
    tree = build_tree(gen_dataset(SynthSpec(kind="binary", levels=6, sparsity=0.5), 1))
    assert sum(map(len, tree.levels)) >= topdown.PARALLEL_MIN_NODES
    return tree


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        before = forks.count
        out = tmp_path / f"rel{cpus}.csv"
        assert main(["release", "--data", str(dataset), "--epsilon", "1", "--delta", "1e-8",
                     "--seed", "5", *argv, "--out", str(out)]) == 0
        assert forks.count - before == cpus - 1
        assert_no_child_left()
        meta = json.loads((tmp_path / f"rel{cpus}.meta.json").read_text())
        meta["per_level"] = _without_wall_ms(meta["per_level"])
        files[cpus] = (out.read_bytes(), meta)
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
        assert_no_child_left()
        runs[cpus] = ([sorted(level.items()) for level in rel.tree.levels],
                      _without_wall_ms(rel.per_level))
    assert forks.count == 1 + 3
    assert runs[1] == runs[2] == runs[4]


@pytest.mark.parametrize("mechanism", ["inftda", "tda-l2", "tda-linf-random"])
@pytest.mark.parametrize("privacy", ["bounded", "unbounded"])
def test_two_blocks_release_identically_at_1_2_and_4_cpus(tree, forks, monkeypatch,
                                                          mechanism, privacy):
    # the frontier is the first depth with 2 nodes, so two blocks hold almost
    # the whole tree, and 4 CPUs still make two groups
    monkeypatch.setattr(topdown, "BLOCK_NODES", 2)
    config = ReleaseConfig(budget=BUDGET, sensitivity=SensitivityModel(privacy), seed=7)
    runs = {}
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        rel = run_release(mechanism, None, tree.mode, tree, config)
        assert_no_child_left()
        runs[cpus] = [sorted(level.items()) for level in rel.tree.levels]
    assert forks.count == 2
    assert runs[1] == runs[2] == runs[4]


def test_wall_ms_after_the_split_sums_over_processes(tree, forks, monkeypatch):
    # a clock that ticks one second per reading, in each process alike: every
    # timed depth takes exactly 1000 ms in each block that works on it, and
    # the two blocks of the first depth with 2 nodes go to one process each
    clock = itertools.count()
    monkeypatch.setattr(topdown, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(topdown, "BLOCK_NODES", 2)
    forks.cpus(2)
    rel = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    assert forks.count == 1
    counts = [row["node_count"] for row in rel.per_level]
    first = next(d for d in range(1, tree.depth + 1) if counts[d - 1] >= 2)
    assert [row["wall_ms"] for row in rel.per_level] == (
        [1000.0] * first + [2000.0] * (tree.depth + 1 - first)
    )


def _failing_in_workers(error):
    parent = os.getpid()

    def solver(noisy, total, order, rng):
        # the first parent a worker expands lies in that worker's group
        if os.getpid() != parent:
            raise error
        return topdown._chebyshev_solver(noisy, total, order, rng)

    return solver


@pytest.mark.parametrize("error", [DataError("bad parent"), ConfigError("bad config"),
                                   ZeroDivisionError("divided")])
def test_worker_exception_is_raised_in_the_parent(tree, forks, error):
    forks.cpus(2)
    with pytest.raises(type(error), match=str(error)):
        release(tree, ReleaseConfig(budget=BUDGET, seed=0), _solver=_failing_in_workers(error))
    assert forks.count == 1
    assert_no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this")


def test_unpicklable_worker_exception_still_reaches_the_parent(tree, forks):
    forks.cpus(2)
    solver = _failing_in_workers(Unpicklable("odd"))
    with pytest.raises(RuntimeError, match="worker failed"):
        release(tree, ReleaseConfig(budget=BUDGET, seed=0), _solver=solver)
    assert_no_child_left()


def test_worker_dying_without_a_result_names_its_exit_status(tree, forks):
    forks.cpus(2)
    parent = os.getpid()

    def solver(noisy, total, order, rng):
        if os.getpid() != parent:
            os._exit(7)
        return topdown._chebyshev_solver(noisy, total, order, rng)

    with pytest.raises(RuntimeError, match="exited with status 7 without a result"):
        release(tree, ReleaseConfig(budget=BUDGET, seed=0), _solver=solver)
    assert_no_child_left()


def test_workers_are_reaped_when_the_parent_share_raises(tree, forks, monkeypatch):
    # few parents above a frontier of 4 or more blocks
    monkeypatch.setattr(topdown, "BLOCK_NODES", 4)
    forks.cpus(4)
    parent = os.getpid()
    expanded = []

    def solver(noisy, total, order, rng):
        if os.getpid() == parent:
            expanded.append(total)
            if len(expanded) > 50:  # past the split: the workers are running
                raise DataError("parent share failed")
        return topdown._chebyshev_solver(noisy, total, order, rng)

    with pytest.raises(DataError, match="parent share failed"):
        release(tree, ReleaseConfig(budget=BUDGET, seed=0), _solver=solver)
    assert forks.count == 3
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(tree, forks):
    forks.cpus(2)
    serial = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    assert forks.count == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        threaded = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks.count == 1
    assert threaded.tree.levels == serial.tree.levels


def test_small_trees_stay_serial(trip_table, forks, monkeypatch):
    # a frontier of blocks the toy tree does reach
    monkeypatch.setattr(topdown, "BLOCK_NODES", 2)
    forks.cpus(2)
    small = build_tree(trip_table)
    # noise decides how many children of the root survive: take the first
    # seed whose frontier holds two blocks
    seed = next(s for s in range(100)
                if len(release(small, ReleaseConfig(budget=BUDGET, seed=s)).tree.levels[1]) >= 2)
    assert forks.count == 0
    # the size threshold alone kept it serial
    monkeypatch.setattr(topdown, "PARALLEL_MIN_NODES", 0)
    release(small, ReleaseConfig(budget=BUDGET, seed=seed))
    assert forks.count == 1


def test_group_whose_fork_fails_is_expanded_in_the_parent(tree, forks, monkeypatch):
    forks.cpus(4)
    expected = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    counting_fork = os.fork
    calls = []

    def fork_failing_once():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError("no process slot")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_failing_once)
    rel = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    assert len(calls) == 3 and forks.count == 3 + 2
    assert_no_child_left()
    assert rel.tree.levels == expected.tree.levels


def test_no_fork_without_os_fork(tree, forks, monkeypatch):
    forks.cpus(2)
    monkeypatch.delattr(os, "fork")
    rel = release(tree, ReleaseConfig(budget=BUDGET, seed=0))
    assert rel.per_level[-1]["node_count"] > 0


def test_groups_partition_the_frontier_by_released_total():
    frontier = {("o", str(i)): v for i, v in enumerate([9, 1, 5, 4, 3, 8])}
    groups = topdown._balanced_groups(frontier, 3)
    assert sorted(k for g in groups for k in g) == sorted(frontier)
    assert [sum(g.values()) for g in groups] == [9, 10, 11]  # lightest first
    assert topdown._balanced_groups(frontier, 3) == groups
