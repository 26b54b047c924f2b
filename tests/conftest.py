"""Shared toy fixtures (a 2-level hierarchy pair and a small trip table), a
fork counter with faked CPU counts, and a check after every test that it left
no child process behind."""

import os

import pytest

from inftda import ingest_trips, parse_hierarchy

ORIGIN_ROWS = [
    ("N", "N.a"),
    ("N", "N.b"),
    ("S", "S.c"),
]

DEST_ROWS = [
    ("E", "E.x"),
    ("E", "E.y"),
    ("W", "W.z"),
]

TRIP_ROWS = [
    ("N.a", "E.x", 3),
    ("N.a", "E.y", 1),
    ("N.b", "W.z", 2),
    ("S.c", "E.y", 5),
]


@pytest.fixture(scope="session")
def origin_hier():
    return parse_hierarchy(ORIGIN_ROWS)


@pytest.fixture(scope="session")
def dest_hier():
    return parse_hierarchy(DEST_ROWS)


@pytest.fixture(scope="session")
def trip_table(origin_hier, dest_hier):
    return ingest_trips(TRIP_ROWS, origin_hier, dest_hier)


@pytest.fixture
def forks(monkeypatch):
    """Fake CPU counts with ``forks.cpus(n)``; ``forks.count`` counts os.fork calls."""
    real_fork = os.fork

    class Forks:
        count = 0

        def cpus(self, n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    state = Forks()

    def counting_fork():
        pid = real_fork()
        if pid:
            state.count += 1
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return state


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"test left child process {pid} unreaped (wait status {status})")
    pytest.fail("test left a child process running")
