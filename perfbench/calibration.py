"""A fixed loop that measures how fast the host runs Python right now.

On a shared host the CPU speed drifts by ±20% over minutes, and every
timing of `auss` drifts with it. Each sample times this loop just before
and just after its user operation, in the same process and in as many
threads as the operation runs: a sweep's runs share the GIL across both
vCPUs, and a one-thread probe does not follow them. The loop does the
kind of work `auss` does: attribute updates on small objects, dict
lookups, a sort, and small numpy products. It does not import `auss`, so
no change to the program changes its time.

A normalized time is a measured time × `REFERENCE_S` ÷ the sample's loop
time: the time the operation would take on a host that runs the loop in
`REFERENCE_S` seconds. Do not change the loop or `REFERENCE_S` without
measuring the baseline again: normalized figures before and after would
not compare.
"""

from __future__ import annotations

import threading
import time

import numpy as np

ROUNDS = 600
N_ITEMS = 500
REFERENCE_S = 0.25  # about one pass on the 2-vCPU Xeon VM of the baseline


class _Tally:
    __slots__ = ("n", "total", "last")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.last = 0


def loop_seconds(threads: int = 1) -> float:
    """Seconds that one pass of the fixed loop takes now, its rounds split over `threads`."""
    workers = [
        threading.Thread(target=_loop, args=(ROUNDS // threads,)) for _ in range(threads)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


def _loop(rounds: int) -> None:
    tallies = {f"s{i}": _Tally() for i in range(N_ITEMS)}
    keys = list(tallies)
    x = 12345
    for r in range(rounds):
        for key in keys:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            tally = tallies[key]
            tally.n += 1
            tally.total += (x % 1000) / 1000.0
            tally.last = r
            if tally.n > 3 and tally.total / tally.n > 0.6:
                tally.total *= 0.9
        sorted(((t.total / t.n, k) for k, t in tallies.items()), reverse=True)[:20]
        m = np.arange(200, dtype=float).reshape(20, 10) * (r + 1)
        (m @ m.T).sum(axis=1).argsort()
