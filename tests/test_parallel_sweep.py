"""A sweep on the fork scheduler of ``parallel``.

``run_experiment`` deals every repeat of every (mechanism, epsilon) cell
round-robin into min(W, jobs) groups and forks one worker per group beyond
the first; a release never forks. CPU counts are faked with the ``forks``
fixture, and every ``os.fork`` call, in this process or in a worker, is
logged with the pid that made it.
"""

import hashlib
import json
import os

import pytest

from inftda import MECHANISMS, DataError, SynthSpec, gen_dataset, run_experiment
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
# a serial sweep
SWEEP_DIGEST = "3465826d77972bd4de79353c1adc52fca2b877903df332f27acd756e8511340d"


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


def test_sweep_reports_identical_at_1_2_and_4_cpus(tmp_path, forks, fork_pids):
    for cpus in (1, 2, 4):
        forks.cpus(cpus)
        before = len(fork_pids())
        out_dir = tmp_path / f"reports{cpus}"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**SWEEP, "out_dir": str(out_dir)}))
        assert main(["sweep", "--config", str(config)]) == 0
        # one fork per group beyond the first, all by the sweep: none by a release
        assert fork_pids()[before:] == [os.getpid()] * (min(cpus, JOBS) - 1)
        assert _report_digest(out_dir) == SWEEP_DIGEST


@pytest.mark.parametrize("repeats, forked", [(1, 0), (2, 1)], ids=["one-job", "two-jobs"])
def test_fewer_jobs_than_cpus(forks, fork_pids, monkeypatch, repeats, forked):
    # one job runs here, two jobs make two groups, and no release forks,
    # not even with a frontier of several blocks
    monkeypatch.setattr(topdown, "BLOCK_NODES", 4)  # the 8x8 tree holds 4+ blocks
    forks.cpus(4)
    table = gen_dataset(SynthSpec(kind="binary", levels=3, sparsity=0.5), 5)
    run_experiment(table, mechanisms=["inftda"], epsilons=[1.0], repeats=repeats)
    assert fork_pids() == [os.getpid()] * forked


@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_job_exception_reaches_the_caller(forks, fork_pids, monkeypatch, failing):
    forks.cpus(2)
    parent = os.getpid()
    real_run = evaluate.run_mechanism

    def run_mechanism(*args):
        if (os.getpid() == parent) == (failing == "parent"):
            raise DataError(f"job failed in the {failing}")
        return real_run(*args)

    monkeypatch.setattr(evaluate, "run_mechanism", run_mechanism)
    table = gen_dataset(SynthSpec(kind="binary", levels=3, sparsity=0.5), 5)
    with pytest.raises(DataError, match=f"job failed in the {failing}"):
        run_experiment(table, mechanisms=["inftda", "sh"], epsilons=[1.0], repeats=2)
    assert fork_pids() == [parent]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this")


@pytest.mark.parametrize("failure", ["unpicklable", "exit"])
def test_failing_sweep_worker_names_itself_a_worker(forks, monkeypatch, failure):
    forks.cpus(2)
    parent = os.getpid()
    real_run = evaluate.run_mechanism

    def run_mechanism(*args):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(7)
            raise Unpicklable("odd")
        return real_run(*args)

    monkeypatch.setattr(evaluate, "run_mechanism", run_mechanism)
    table = gen_dataset(SynthSpec(kind="binary", levels=3, sparsity=0.5), 5)
    message = {"unpicklable": r"^worker failed with Unpicklable\('odd'\)$",
               "exit": r"^worker \d+ exited with status 7 without a result$"}[failure]
    with pytest.raises(RuntimeError, match=message):
        run_experiment(table, mechanisms=["inftda", "sh"], epsilons=[1.0], repeats=2)
