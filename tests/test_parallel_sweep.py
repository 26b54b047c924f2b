"""A sweep on its pool of forked workers.

``run_experiment`` maps every repeat of every (mechanism, epsilon) cell over
a pool of min(W, jobs) forked workers, or runs them in this process when that
is 1; a release never forks. CPU counts are faked with the ``forks`` fixture,
every ``os.fork`` call, in this process or in a worker, is logged with the
pid that made it, and ``conftest`` fails any test that leaves a child behind.
"""

import hashlib
import json
import os
import threading
import time

import pytest

from inftda import (MECHANISMS, ConfigError, DataError, SynthSpec, gen_dataset,
                    run_experiment)
from inftda import evaluate, topdown
from inftda.cli import main

SWEEP = {
    "synth": {"kind": "binary", "levels": 3, "sparsity": 0.5, "seed": 5},
    "mechanisms": list(MECHANISMS),
    "epsilons": [0.5, 2.0],
    "repeats": 3,
    "seed": 2,
}
JOBS = len(MECHANISMS) * 2 * 3

# SHA-256 over the report files of SWEEP (JSON without wall_ms), as written by
# a serial sweep; the same on every supported Python, since means are fsums
SWEEP_DIGEST = "77d314edeaa8660aeae71c5621c2816776c28ba7646a4ed864f7ab09c09da94b"


def _report_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("wall_ms")
            data = json.dumps(payload, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def _sweep_digest(tmp_path, name) -> str:
    """The report digest of SWEEP, run through ``inftda sweep`` into ``name``."""
    out_dir = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({**SWEEP, "out_dir": str(out_dir)}))
    assert main(["sweep", "--config", str(config)]) == 0
    return _report_digest(out_dir)


def _forks_for(cpus, jobs):
    # a pool forks one worker per job slot; a single slot runs here
    workers = min(cpus, jobs)
    return workers if workers > 1 else 0


@pytest.fixture
def fork_pids(forks, monkeypatch, tmp_path):
    """``fork_pids()`` lists the pid of every os.fork caller, workers included."""
    log = tmp_path / "forks.log"
    log.touch()
    inner = os.fork

    def logging_fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return inner()

    monkeypatch.setattr(os, "fork", logging_fork)
    return lambda: [int(pid) for pid in log.read_text().split()]


@pytest.fixture(scope="module")
def table():
    return gen_dataset(SynthSpec(kind="binary", levels=3, sparsity=0.5), 5)


def test_sweep_reports_identical_at_1_2_and_4_cpus(tmp_path, forks, fork_pids):
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        before = len(fork_pids())
        assert _sweep_digest(tmp_path, f"reports{cpus}") == SWEEP_DIGEST
        # one fork per worker, all by the sweep: none by a release
        assert fork_pids()[before:] == [os.getpid()] * _forks_for(cpus, JOBS)


@pytest.mark.parametrize("repeats", [1, 2], ids=["one-job", "two-jobs"])
def test_fewer_jobs_than_cpus(forks, fork_pids, monkeypatch, table, repeats):
    # one job runs here, two jobs fork two workers, and no release forks,
    # not even with a frontier of several blocks
    monkeypatch.setattr(topdown, "BLOCK_NODES", 4)  # the 8x8 tree holds 4+ blocks
    forks.cpus(4)
    run_experiment(table, mechanisms=["inftda"], epsilons=[1.0], repeats=repeats)
    assert fork_pids() == [os.getpid()] * _forks_for(4, repeats)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("error", [DataError("bad parent"), ConfigError("bad config"),
                                   ZeroDivisionError("divided")], ids=type)
def test_job_exception_reaches_the_caller(forks, monkeypatch, table, cpus, error):
    forks.cpus(cpus)

    def run_mechanism(*args):
        raise error

    monkeypatch.setattr(evaluate, "run_mechanism", run_mechanism)
    with pytest.raises(type(error), match=str(error)):
        run_experiment(table, mechanisms=["inftda", "sh"], epsilons=[1.0], repeats=2)
    # with two CPUs the error is raised in a worker, with one here
    assert forks.count == _forks_for(cpus, 4)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this")


def test_unpicklable_worker_exception_raises_the_pickling_error(forks, monkeypatch, table):
    forks.cpus(2)

    def run_mechanism(*args):
        raise Unpicklable("odd")

    monkeypatch.setattr(evaluate, "run_mechanism", run_mechanism)
    with pytest.raises(TypeError, match="cannot pickle this"):
        run_experiment(table, mechanisms=["inftda", "sh"], epsilons=[1.0], repeats=2)
    assert forks.count == 2


def test_worker_dying_without_a_result_raises(forks, monkeypatch, table):
    forks.cpus(2)

    def run_mechanism(*args):
        os._exit(7)

    monkeypatch.setattr(evaluate, "run_mechanism", run_mechanism)
    # BrokenProcessPool, without importing the pool here
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        run_experiment(table, mechanisms=["inftda", "sh"], epsilons=[1.0], repeats=2)


def test_job_failing_while_others_run_waits_for_them(forks, monkeypatch, table, tmp_path):
    forks.cpus(2)
    finished = tmp_path / "finished"
    real_run = evaluate.run_mechanism

    def run_mechanism(name, *args):
        if name == "sh":
            raise DataError("sh failed")
        time.sleep(1)  # still running when the sh job fails
        finished.write_text(name)
        return real_run(name, *args)

    monkeypatch.setattr(evaluate, "run_mechanism", run_mechanism)
    with pytest.raises(DataError, match="sh failed"):
        run_experiment(table, mechanisms=["sh", "inftda"], epsilons=[1.0], repeats=1)
    # the job in flight ran to its end before the error was raised
    assert finished.read_text() == "inftda"
    assert forks.count == 2


@pytest.mark.parametrize("failing_call", [1, 2, 3])
def test_sweep_whose_fork_fails_runs_here(forks, monkeypatch, tmp_path, failing_call):
    forks.cpus(4)
    counting_fork = os.fork
    calls = []

    def fork_failing_once():
        calls.append(None)
        if len(calls) == failing_call:
            raise BlockingIOError("no process slot")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_failing_once)
    assert _sweep_digest(tmp_path, "reports") == SWEEP_DIGEST
    # the pool stops forking at the failure; the workers forked before it
    # are stopped, and every job runs here
    assert len(calls) == failing_call and forks.count == failing_call - 1


def test_no_fork_while_another_thread_is_alive(forks, table):
    forks.cpus(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        cpus = evaluate.usable_cpus()
        run_experiment(table, mechanisms=["inftda"], epsilons=[1.0], repeats=2)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cpus == 1 and forks.count == 0
    assert evaluate.usable_cpus() == 2


def test_no_fork_without_os_fork(forks, monkeypatch, table):
    forks.cpus(2)
    monkeypatch.delattr(os, "fork")
    assert evaluate.usable_cpus() == 1
    run_experiment(table, mechanisms=["inftda"], epsilons=[1.0], repeats=2)
