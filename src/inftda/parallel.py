"""Forked worker processes: the one way this package uses more than one CPU.

``run_split(groups, work, merge)`` calls ``merge(work(group))`` for every
group: the first group in this process, each other group in one forked worker
that pickles its result back through a pipe. ``usable_cpus`` says how many
groups are worth making. A sweep splits its list of repeats this way; a
release runs in one process and never splits.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, List, Sequence, Tuple

__all__ = ["usable_cpus", "run_split"]


def usable_cpus() -> int:
    """W: the CPUs this process may run on, or 1 where forking is not allowed."""
    # forking a process with other threads alive can deadlock the child
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork_worker(work: Callable, arg) -> Tuple[int, int]:
    """Run ``work(arg)`` in a forked child; return (pid, read end of its result pipe).

    The child pickles ``(True, result)`` or ``(False, exception)`` into the pipe
    and leaves with ``os._exit``: no atexit handlers, no inherited stdio flush.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, work(arg))
        except BaseException as exc:  # noqa: BLE001 - every failure goes to the parent
            outcome = (False, exc)
        try:
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - an exception that does not pickle
            error = RuntimeError(f"worker failed with {outcome[1]!r}")
            payload = pickle.dumps((False, error))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int):
    """The result the worker ``pid`` sent; reaps it and closes ``read_fd``."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(
            f"worker {pid} exited with status "
            f"{os.waitstatus_to_exitcode(status)} without a result"
        ) from None
    if not ok:
        raise value
    return value


def run_split(groups: Sequence, work: Callable, merge: Callable) -> None:
    """``merge(work(group))`` for every group: the first in this process, the
    others in one forked worker each (or here, if the fork fails, say for a
    process limit). Every worker is reaped on every path.
    """
    workers: List[Tuple[int, int]] = []
    local = list(groups[:1])
    try:
        for group in groups[1:]:
            try:
                workers.append(_fork_worker(work, group))
            except OSError:
                local.append(group)
        for group in local:
            merge(work(group))
        while workers:
            pid, read_fd = workers.pop(0)
            merge(_collect(pid, read_fd))
    finally:
        for pid, read_fd in workers:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
