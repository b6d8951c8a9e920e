"""Compute a stream of results in a forked child while the caller goes on.

The one fork policy of the package: the cohort metrics of the runs of one
cohort and the back half of a large events.jsonl (a stream of one item)
both go through :func:`ahead`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import struct
import threading
import warnings
from typing import Callable, Iterable, Iterator

#: Each item goes down the pipe as its pickle's length, then the pickle.
_LENGTH = struct.Struct("<Q")


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
def ahead(fn: Callable[..., Iterable[object]], *args) -> Iterator[Callable[[], object]]:
    """Start on the items of ``fn(*args)`` while the caller goes on.

    Yields a function; each call returns the next item of ``fn(*args)``,
    or None when the caller is to compute that item itself. Where
    :func:`fork_worthwhile`, a forked child iterates ``fn(*args)``, pickles
    each item to a pipe as soon as it is computed and leaves by
    ``os._exit``, so it never returns into the caller's stack. A failed
    fork gives None for every item. So does the first item that cannot be
    had, and every item after it: a short pipe (the child failed, or had
    no more items) or an unreadable pickle. On leaving the block, the
    child is killed, if it has not left already, and reaped: no process
    outlives the block.
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
            with os.fdopen(write_fd, "wb") as pipe:
                for item in fn(*args):
                    payload = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
                    pipe.write(_LENGTH.pack(len(payload)))
                    pipe.write(payload)
                    pipe.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")

    def next_item() -> object:
        if not pipe.closed:
            head = pipe.read(_LENGTH.size)
            size = _LENGTH.unpack(head)[0] if len(head) == _LENGTH.size else -1
            payload = pipe.read(size) if size > 0 else b""
            if len(payload) == size:
                try:
                    return pickle.loads(payload)
                except (pickle.UnpicklingError, EOFError):  # a truncated pickle
                    pass
            pipe.close()  # no item after the first that cannot be had is read
        return None

    try:
        for caught in fork_warnings:
            warnings.warn(caught.message)
        yield next_item
    finally:
        pipe.close()
        os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still the child's
        os.waitpid(pid, 0)
