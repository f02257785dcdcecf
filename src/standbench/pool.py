"""Forked workers, one per usable CPU, as a gang that runs phases together.
This is the one module that forks.

Workers are forked, so they inherit this process's modules, arrays and
numeric setup, and a task computes the same bits wherever it runs. A phase
and its tasks reach each worker through the fork: only a phase's number
goes to a worker over its pipe, and only one byte comes back when it ends
the phase, or one line naming the exception that ended it. A caller hands
outputs back by writing them into ``shared_array``s made before the fork, or
into files. standbench starts no thread, so forking is safe.
"""

from __future__ import annotations

import mmap
import os
import select
import tempfile

import numpy as np

try:
    import fcntl
except ImportError:  # a platform without it has no os.fork either, so nothing forks
    fcntl = None

from . import _BLAS_THREAD_VARS
from .exceptions import WorkerError

_job = None  # in a forked worker, the Gang it works for

# The work (``stand.flop_estimate`` flops) that each worker must be given to
# pay for starting it, with one BLAS thread per process. Timed in alternation
# on one 2-core machine, a two-worker ``stand.infer`` (d=32) lost to an
# in-process one at 7.5e7 of work, broke even at 1.5e8 and won from 3e8.
WORK_PER_WORKER = 1e8
# How many times that work a worker of a lockstep ``Gang`` needs, as training
# waits for its slowest worker twice a step. Timed in alternation on the same
# machine, a two-worker training (d=32 and 64, batch 128) lost at 2.5e8 of
# work after its first step, broke even at 4e8 and won from 8e8.
LOCKSTEP_WORK = 4

# A worker's reply when it has ended a phase; any other reply is the
# ``Type: message`` line of the exception that ended it, in one write that
# the pipe keeps whole.
_DONE = b"\n"
# Past any task count: a queue that reads this is empty.
_HALTED = 2**62


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(tasks: int, work: float | None = None) -> int:
    """How many workers to start for this many tasks, the one rule for every
    fork; 1 means run them in-process: one task or one usable CPU, no
    ``os.fork``, already inside a worker (a worker that forked again would
    leave grandchildren), BLAS running several threads per process (on 2
    cores a two-worker training then took 3.4-3.8 s against 2.0 s in one
    process), or too little ``work`` (estimated flops of all tasks, if
    given) for more than one worker to pay for itself."""
    if tasks < 2 or not hasattr(os, "fork") or _job is not None or blas_threads() > 1:
        return 1
    count = min(tasks, usable_cpus())
    if work is None:
        return count
    return max(1, min(count, int(work // WORK_PER_WORKER)))


def blas_threads() -> int:
    """The threads BLAS runs each product on in one process, as OpenBLAS
    reads them from the environment at start-up: one per usable CPU when
    none of its variables is set."""
    for var in _BLAS_THREAD_VARS:
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


def each(fn, tasks: list) -> None:
    """Call ``fn(*task)`` for every task, on ``workers(len(tasks))`` forked
    workers that deal the tasks among themselves, or in this process when
    that is one. Beside forked workers this process computes no task: it only
    waits, so what a task makes it writes itself.

    In-process, an exception from a task is raised with its own type and no
    task starts after it. On workers, a task that raises or a worker that
    dies ends the call with ``WorkerError`` naming the exception or the task,
    once the other workers have finished their current task; none takes
    another. Every worker is reaped before this returns or raises.
    """
    count = workers(len(tasks))

    def deal(worker):
        if worker or count == 1:  # a forked gang's worker 0 only waits
            for index in gang.deal(worker, len(tasks)):
                fn(*tasks[index])

    deal.__name__ = fn.__name__  # a worker's error names fn
    with Gang([deal]) as gang:
        if count > 1:
            gang.fork(count + 1)
        gang.run(0)


class Gang:
    """This process as worker 0 and ``count - 1`` forked workers that run
    each phase together: ``run(phase)`` calls ``phases[phase](worker)`` on
    every worker and returns when all have finished it. A phase takes its
    tasks one at a time from ``deal``, a queue that every worker of the
    phase shares, so a worker that another process slows down simply takes
    fewer. Until ``fork`` starts the workers, this process is the only one,
    and ``deal`` hands it every task.

    Workers see what this process wrote into ``shared_array``s before it
    starts a phase, and it sees what they wrote once the phase ends: one
    pipe byte to each worker starts a phase, and one byte back ends it. When
    a worker dies or raises, the queue is halted and, once every other
    worker has ended the phase, ``run`` raises ``WorkerError`` naming the
    exception, or the task or phase it died in. Leaving the ``with`` block
    halts the queue and reaps every worker once it has ended its phase.
    """

    def __init__(self, phases: list):
        self.phases = phases
        self._workers = []  # (pid, pipe to it, pipe from it)
        self._queue = None  # the next task to deal, then each worker's current task
        self._lock = None  # a file whose lock a worker holds to take a task

    def __enter__(self) -> "Gang":
        return self

    def __exit__(self, *_) -> None:
        self.close()

    def fork(self, count: int) -> None:
        """Start ``count - 1`` workers, after which every phase runs on all ``count``."""
        self._queue = shared_array(count + 1, np.int64)
        self._lock = tempfile.TemporaryFile()
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

    def deal(self, worker: int, tasks: int):
        """Yield ``worker``'s next task index below ``tasks`` until the queue
        that every worker of this phase shares is empty. A shared counter
        behind a file lock deals them, so any number of tasks fits, and the
        kernel frees the lock of a worker that dies holding it."""
        if self._queue is None:  # not forked: this process takes every task
            yield from range(tasks)
            return
        while (index := self._take()) < tasks:
            self._queue[1 + worker] = index
            yield index
            self._queue[1 + worker] = -1

    def halt(self) -> None:
        """Empty the queue: no worker takes a task after this."""
        if self._queue is not None:
            self._take(halt=True)

    def _take(self, halt: bool = False) -> int:
        """The queue's next index, which this takes, or past its end with ``halt``."""
        fcntl.lockf(self._lock, fcntl.LOCK_EX)
        index = int(self._queue[0])
        self._queue[0] = _HALTED if halt else index + 1
        fcntl.lockf(self._lock, fcntl.LOCK_UN)
        return index

    def _work(self, worker: int, go, reply) -> None:
        try:
            while phase := os.read(go, 1):
                try:
                    self.phases[phase[0]](worker)
                except BaseException as exc:
                    self.halt()
                    os.write(reply, f"{type(exc).__name__}: {exc}".encode()[: select.PIPE_BUF])
                    os._exit(1)
                os.write(reply, _DONE)
        finally:  # the end of its pipe, or a reply this process no longer reads
            os._exit(0)

    def run(self, phase: int) -> None:
        """Run ``phase`` on every worker, this process included."""
        self._start(phase)
        self.phases[phase](0)
        self._wait(phase)

    def _start(self, phase: int) -> None:
        if self._queue is not None:
            self._queue[0] = 0
            self._queue[1:] = -1
        for worker, (_, go, _) in enumerate(self._workers, 1):
            try:
                os.write(go, bytes([phase]))
            except BrokenPipeError:
                name = self.phases[phase].__name__
                raise WorkerError(f"gang worker {worker} died before phase {name}") from None

    def _wait(self, phase: int) -> None:
        """Return once every forked worker has ended ``phase``. When one has
        failed or died, halt the queue, and raise the first failure as
        ``WorkerError`` once the others have ended theirs."""
        name = self.phases[phase].__name__
        pending = {done: worker for worker, (_, _, done) in enumerate(self._workers, 1)}
        poller = select.poll()
        for done in pending:
            poller.register(done, select.POLLIN)
        error = None
        while pending:
            for fd, _ in poller.poll():
                poller.unregister(fd)
                worker = pending.pop(fd)
                reply = os.read(fd, select.PIPE_BUF)
                if reply == _DONE or error is not None:
                    continue
                self.halt()
                if reply:
                    text = reply.decode(errors="replace")
                    error = f"gang worker {worker} failed: {text} in phase {name}"
                elif (task := int(self._queue[1 + worker])) >= 0:
                    error = f"a worker died running task {task} of {name}"
                else:
                    error = f"gang worker {worker} died in phase {name}"
        if error is not None:
            raise WorkerError(error)

    def close(self) -> None:
        """Halt the queue, stop every worker once it has ended its phase, and reap it."""
        self.halt()
        for _, go, done in self._workers:
            os.close(go)
            os.close(done)
        for pid, _, _ in self._workers:
            os.waitpid(pid, 0)
        if self._lock is not None:
            self._lock.close()
        self._workers, self._queue, self._lock = [], None, None
        self.phases = []  # phases that refer to the gang would keep it and their arrays alive
