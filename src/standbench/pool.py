"""Forked workers, one per usable CPU: a pool for independent tasks and a gang
for lockstep phases. This is the one module that forks.

Workers are forked, so they inherit this process's modules, arrays and
numeric setup, and a task computes the same bits wherever it runs. The
function and its tasks reach each worker through the fork, not a pickle;
only a task's index goes to a worker and only its return value comes back.
A caller hands large outputs back by writing them into ``shared_array``s
made before the fork. The pool forks its workers before it starts its own
manager thread, and standbench starts no other thread.
"""

from __future__ import annotations

import mmap
import os
import signal

import numpy as np

from .exceptions import WorkerError

_job = None  # in a worker, what it works for: a pool's (fn, tasks) or a Gang

# The work (``stand.flop_estimate`` flops) that each worker must be given to
# pay for starting it. Timed in alternation on one 2-core machine, a pooled
# ``stand.infer`` (d=32, T=18000) lost to an in-process one up to about 9e8
# of work (stride 11 or more) and won from about 1.1e9 (stride 9 or less).
WORK_PER_WORKER = 5e8


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(tasks: int, work: float | None = None) -> int:
    """How many workers to start for this many tasks; 1 means run them
    in-process: one task or one usable CPU, no ``os.fork``, already inside a
    worker (a worker that forked again would leave grandchildren), or too
    little ``work`` (estimated flops of all tasks, if given) for more than
    one worker to pay for itself."""
    if tasks < 2 or not hasattr(os, "fork") or _job is not None:
        return 1
    count = min(tasks, usable_cpus())
    return count if work is None else max(1, min(count, int(work // WORK_PER_WORKER)))


def blas_threads() -> int:
    """The threads BLAS runs each product on in one process, as OpenBLAS
    reads them from the environment at start-up: one per usable CPU when
    none of its variables is set."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cpus()


def shared_array(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory: a worker forked after it
    is made writes into the same pages. Its memory goes back to the
    operating system when the last view of it is dropped, not to the heap."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count, 1) * dtype.itemsize)
    return np.frombuffer(buffer, dtype)[:count].reshape(shape)


def _start_worker(fn, tasks) -> None:
    global _job
    _job = (fn, tasks)


def _run(index: int):
    fn, tasks = _job
    return fn(*tasks[index])


def completed(fn, tasks: list):
    """Yield (index, fn(*tasks[index])) for every task, as each finishes, on
    ``workers(len(tasks))`` workers.

    An exception from a task is raised here after the pool has shut down,
    and no task that has not started yet runs after it. A worker that dies
    raises ``WorkerError``.
    """
    count = workers(len(tasks))
    if count == 1:
        for index, task in enumerate(tasks):
            yield index, fn(*task)
        return
    # imported here, so that importing the package does not pay for a pool
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    with ProcessPoolExecutor(count, mp_context=get_context("fork"), initializer=_start_worker,
                             initargs=(fn, tasks)) as pool:
        futures = {pool.submit(_run, index): index for index in range(len(tasks))}
        try:
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise WorkerError(f"a worker died running task {futures[future]} of "
                                      f"{fn.__name__}") from None
                yield futures[future], result
        finally:  # after an error or an interrupt, start no further task
            pool.shutdown(cancel_futures=True)


class Gang:
    """This process as worker 0 and ``count - 1`` forked workers that run
    each phase together: ``run(phase)`` calls ``phases[phase](worker)`` on
    every worker and returns when all have finished it.

    ``fork`` starts the workers; until then ``run`` calls this process's
    share alone. Workers see what this process wrote into ``shared_array``s
    before it starts a phase, and it sees what they wrote once ``run``
    returns: one pipe byte to each worker and one back orders each phase.
    A worker that dies or raises ends ``run`` with ``WorkerError`` naming
    the phase; leaving the ``with`` block stops and reaps every worker.
    """

    @staticmethod
    def workers(tasks: int, work: float) -> int:
        """``workers(tasks, work)`` when BLAS runs one thread per process,
        else 1. The phases run in lockstep, so a worker whose core another
        process's BLAS thread takes holds up every step: with two BLAS
        threads per process, a two-worker training took 3.4-3.8 s on a
        2-core machine against 2.0 s in one process."""
        return workers(tasks, work) if blas_threads() == 1 else 1

    def __init__(self, phases: list):
        self.phases = phases
        self.size = 1  # workers, this process included
        self._workers = []  # (pid, pipe to it, pipe from it)

    def __enter__(self) -> "Gang":
        return self

    def __exit__(self, kind, *_) -> None:
        self.close(kill=kind is not None)

    def fork(self, count: int) -> None:
        """Start ``count - 1`` workers, after which every phase runs on all ``count``."""
        self.size = count
        pipes = [(os.pipe(), os.pipe()) for _ in range(count - 1)]
        ends = {fd for pair in pipes for both in pair for fd in both}
        try:
            for worker, ((go_read, go_write), (done_read, done_write)) in enumerate(pipes, 1):
                pid = os.fork()
                if pid == 0:  # the worker never returns into the caller's frames
                    global _job
                    _job = self
                    for fd in ends - {go_read, done_write}:
                        os.close(fd)
                    self._work(worker, go_read, done_write)
                self._workers.append((pid, go_write, done_read))
        finally:  # this process keeps only its ends of the started workers' pipes
            for fd in ends - {fd for _, go, done in self._workers for fd in (go, done)}:
                os.close(fd)

    def _work(self, worker: int, go, done) -> None:
        code = 0
        try:
            while phase := os.read(go, 1):
                try:
                    self.phases[phase[0]](worker)
                except BaseException as exc:
                    os.write(done, b"E" + f"{type(exc).__name__}: {exc}".encode()[:4000])
                    code = 1
                    break
                os.write(done, b"\0")
        finally:
            os._exit(code)

    def run(self, phase: int) -> None:
        name = self.phases[phase].__name__
        for worker, (_, go, _) in enumerate(self._workers, 1):
            try:
                os.write(go, bytes([phase]))
            except BrokenPipeError:
                raise WorkerError(f"gang worker {worker} died before phase {name}") from None
        self.phases[phase](0)
        for worker, (_, _, done) in enumerate(self._workers, 1):
            reply = os.read(done, 4096)
            if reply != b"\0":
                what = "failed: " + reply[1:].decode(errors="replace") if reply else "died"
                raise WorkerError(f"gang worker {worker} {what} in phase {name}")

    def close(self, kill: bool = False) -> None:
        """Stop every worker (at once with ``kill``, else after its phase) and reap it."""
        for pid, go, done in self._workers:
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.close(go)
            os.close(done)
        for pid, _, _ in self._workers:
            os.waitpid(pid, 0)
        self._workers = []
        self.phases = []  # phases that refer to the gang would keep it and their arrays alive
