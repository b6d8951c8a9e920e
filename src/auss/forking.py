"""Run one function in a forked child while the caller goes on.

The one fork policy of the package: the cohort metrics of a run and the
back half of a large events.jsonl both go through :func:`ahead`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import warnings
from typing import Callable, Iterator


def fork_worthwhile() -> bool:
    """Fork only where that is safe and can pay: ``os.fork`` exists, no
    other Python thread runs (a fork copies only the calling thread, and a
    lock another thread holds stays held in the child), and this process
    may use at least two CPUs."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    )


@contextlib.contextmanager
def ahead(fn: Callable[..., object], *args) -> Iterator[Callable[[], object]]:
    """Start on ``fn(*args)`` while the caller goes on.

    Yields a function that returns what ``fn(*args)`` returned, or None
    when the caller is to compute it itself. Where :func:`fork_worthwhile`,
    a forked child computes it, pickles it to a pipe and leaves by
    ``os._exit``, so it never returns into the caller's stack. The function
    reads the pipe and reaps the child; a failed fork, or a child that
    failed in any way (a nonzero exit, a short or unreadable pipe), gives
    None. On leaving the block, a child not yet reaped is killed and
    reaped: no process outlives the block.
    """
    if not fork_worthwhile():
        yield lambda: None
        return
    read_fd, write_fd = os.pipe()
    try:
        # Python 3.12+ warns on a fork from a process with more than one OS
        # thread; the warning is raised again below, where the child is reaped.
        with warnings.catch_warnings(record=True) as fork_warnings:
            warnings.simplefilter("always")
            pid = os.fork()
    except OSError:  # no process to spare: compute inline
        os.close(read_fd)
        os.close(write_fd)
        yield lambda: None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(fn(*args), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def result() -> object:
        nonlocal reaped
        with pipe:
            payload = pipe.read()
        _pid, status = os.waitpid(pid, 0)
        reaped = True
        if os.waitstatus_to_exitcode(status) != 0:
            return None
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError):  # a short pipe
            return None

    try:
        for caught in fork_warnings:
            warnings.warn(caught.message)
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
