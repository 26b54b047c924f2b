"""A release runs on one CPU; the fork helpers of the sweep, called directly.

``release`` never forks and reads no CPU count, so its files and levels are
the same at any CPU count. The CPU count is faked here by replacing
``os.sched_getaffinity``, and every fork goes through a counting wrapper, so
each release test also shows that nothing forked. ``parallel.run_split`` and
``parallel.usable_cpus``, which only the sweep uses, are checked on every
failure path by calling them directly.
"""

import itertools
import json
import os
import threading
import time
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
from inftda import parallel, topdown
from inftda.evaluate import run_release
from inftda.cli import main

BUDGET = PrivacyBudget.from_eps_delta(1.0, 1e-8)


@pytest.fixture(scope="module")
def tree():
    tree = build_tree(gen_dataset(SynthSpec(kind="binary", levels=6, sparsity=0.5), 1))
    # the true tree reaches the block frontier above its leaves
    assert any(len(level) >= topdown.BLOCK_NODES for level in tree.levels[:-1])
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
    monkeypatch.setattr(parallel, "usable_cpus", no_cpu_count)
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


def _failing_in_workers(error):
    parent = os.getpid()

    def work(group):
        if os.getpid() != parent:
            raise error
        return group

    return work


@pytest.mark.parametrize("error", [DataError("bad parent"), ConfigError("bad config"),
                                   ZeroDivisionError("divided")])
def test_worker_exception_is_raised_in_the_parent(forks, error):
    merged = []
    with pytest.raises(type(error), match=str(error)):
        parallel.run_split([0, 1], _failing_in_workers(error), merged.append)
    assert forks.count == 1
    assert merged == [0]  # the share of this process
    assert_no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this")


def test_unpicklable_worker_exception_still_reaches_the_parent(forks):
    work = _failing_in_workers(Unpicklable("odd"))
    with pytest.raises(RuntimeError, match=r"^worker failed with Unpicklable\('odd'\)$"):
        parallel.run_split([0, 1], work, lambda result: None)
    assert forks.count == 1
    assert_no_child_left()


def test_worker_dying_without_a_result_names_its_exit_status(forks):
    parent = os.getpid()

    def work(group):
        if os.getpid() != parent:
            os._exit(7)
        return group

    with pytest.raises(RuntimeError, match="exited with status 7 without a result"):
        parallel.run_split([0, 1], work, lambda result: None)
    assert_no_child_left()


def test_workers_are_reaped_when_the_parent_share_raises(forks):
    parent = os.getpid()

    def work(group):
        if os.getpid() == parent:
            raise DataError("parent share failed")
        time.sleep(30)  # still running when the parent's share fails
        return group

    start = time.monotonic()
    with pytest.raises(DataError, match="parent share failed"):
        parallel.run_split([0, 1, 2, 3], work, lambda result: None)
    assert forks.count == 3
    assert_no_child_left()
    assert time.monotonic() - start < 10  # killed, not waited for


def test_group_whose_fork_fails_runs_in_the_parent(forks, monkeypatch):
    counting_fork = os.fork
    calls = []

    def fork_failing_once():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError("no process slot")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_failing_once)
    ran = {}
    parallel.run_split([0, 1, 2, 3], lambda group: (group, os.getpid()), lambda r: ran.update([r]))
    assert len(calls) == 3 and forks.count == 2
    assert_no_child_left()
    assert sorted(ran) == [0, 1, 2, 3]
    # groups 0 and 2 (whose fork failed) ran here, 1 and 3 in workers
    assert [pid == os.getpid() for _, pid in sorted(ran.items())] == [True, False, True, False]


def test_no_fork_while_another_thread_is_alive(forks):
    forks.cpus(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        cpus = parallel.usable_cpus()
        ran = []
        parallel.run_split(list(range(cpus)), lambda group: group, ran.append)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cpus == 1 and ran == [0]
    assert forks.count == 0
    assert parallel.usable_cpus() == 2


def test_no_fork_without_os_fork(forks, monkeypatch):
    forks.cpus(2)
    monkeypatch.delattr(os, "fork")
    assert parallel.usable_cpus() == 1
