"""The one process pool: tasks run on forked workers, one per usable CPU.

Workers are forked, so they inherit this process's modules, arrays and
numeric setup, and a task computes the same bits wherever it runs. The
function and its tasks reach each worker through the fork, not a pickle;
only a task's index goes to a worker and only its return value comes back.
A caller hands large outputs back by writing them into shared memory (see
``stand.infer``). The pool forks its workers before it starts its own
manager thread, and standbench starts no other thread.
"""

from __future__ import annotations

import os

_job = None  # (fn, tasks) of the pool this process works for; set in each worker


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(tasks: int) -> int:
    """How many workers ``completed`` starts for this many tasks; 1 means it
    runs them in-process: one task or one usable CPU, no ``os.fork``, or
    already inside a worker (pool workers are not daemonic, so a task that
    pooled again would fork grandchildren)."""
    if tasks < 2 or not hasattr(os, "fork"):
        return 1
    from multiprocessing import parent_process

    return 1 if parent_process() is not None else min(tasks, usable_cpus())


def _start_worker(fn, tasks) -> None:
    global _job
    _job = (fn, tasks)


def _run(index: int):
    fn, tasks = _job
    return fn(*tasks[index])


def completed(fn, tasks: list):
    """Yield (index, fn(*tasks[index])) for every task, as each finishes.

    An exception from a task is raised here after the pool has shut down,
    and no task that has not started yet runs after it.
    """
    count = workers(len(tasks))
    if count == 1:
        for index, task in enumerate(tasks):
            yield index, fn(*task)
        return
    # imported here, so that importing the package does not pay for a pool
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from multiprocessing import get_context

    with ProcessPoolExecutor(count, mp_context=get_context("fork"), initializer=_start_worker,
                             initargs=(fn, tasks)) as pool:
        futures = {pool.submit(_run, index): index for index in range(len(tasks))}
        try:
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:  # after an error or an interrupt, start no further task
            pool.shutdown(cancel_futures=True)
