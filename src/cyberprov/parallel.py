"""Independent block tasks on the CPUs this process may use.

numpy releases the interpreter lock inside its array loops, so threads
overlap the numeric work of separate blocks without pickling anything and
without a process pool. A task writes only its own slice of an output, or
returns its own value, so results never depend on the number of threads.
The tasks are the g-and-h inverse's blocks (:mod:`~cyberprov.severity`),
the Monte Carlo replay's equal path blocks (:mod:`~cyberprov.simulate`),
and the layer tables' fills (:func:`~cyberprov.compound.build_tables`),
one per distribution. The calling thread allocates every array the tasks
fill.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = ["cpu_count", "map_tasks"]


def cpu_count() -> int:
    """CPUs this process may run on: its affinity set, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_tasks(fn, items) -> list:
    """``[fn(x) for x in items]``, on one thread per usable CPU at most.

    The calling thread takes tasks too, so a pool thread starts only for
    each CPU beyond the first; with one CPU, or one task, every task runs
    inline. Fewer threads also strand less memory: glibc keeps what a
    thread frees in that thread's own arena. A task's exception
    propagates once every thread has stopped taking tasks.
    """
    items = list(items)
    threads = min(cpu_count(), len(items))
    if threads <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    order = iter(range(len(items)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            results[i] = fn(items[i])

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results
