"""Forked workers, one per usable CPU, as a gang that runs phases together.
This is the one module that forks.

Workers are forked, so they inherit this process's modules, arrays and
numeric setup, and a task computes the same bits wherever it runs. A phase
and its tasks reach each worker through the fork, not a pickle: only a
phase's number goes to a worker, and only what a worker ``send``s comes back,
pickled over its pipe. A caller hands large outputs back by writing them
into ``shared_array``s made before the fork. standbench starts no thread, so
forking is safe.
"""

from __future__ import annotations

import functools
import mmap
import os
import pickle
import select
import signal
import tempfile

import numpy as np

try:
    import fcntl
except ImportError:  # a platform without it has no os.fork either, so nothing forks
    fcntl = None

from .exceptions import WorkerError

_job = None  # in a forked worker, the Gang it works for

# The work (``stand.flop_estimate`` flops) that each worker must be given to
# pay for starting it, with one BLAS thread per process. Timed in alternation
# on one 2-core machine, a two-worker ``stand.infer`` (d=32) lost to an
# in-process one at 7.5e7 of work, broke even at 1.5e8 and won from 3e8.
WORK_PER_WORKER = 1e8
# How many times that work a worker needs when BLAS runs several threads in
# each process, whose threads then share the cores: there a two-worker
# ``infer`` (d=32, T=18000) won from 2.4e9 of work (stride 4 or less), broke
# even at 1.6e9-1.9e9 and took twice as long at 1.2e9 (stride 8).
THREADED_BLAS_WORK = 10
# How many times that work a worker of a lockstep ``Gang`` needs, as training
# waits for its slowest worker twice a step. Timed in alternation on the same
# machine, a two-worker training (d=32 and 64, batch 128) lost at 2.5e8 of
# work after its first step, broke even at 4e8 and won from 8e8.
LOCKSTEP_WORK = 4

# What a worker's frame to this process holds: a value it sent, the end of
# its phase, or the failure that ended its phase.
_VALUE, _DONE, _FAILED = range(3)
# Past any task count: a queue that reads this is empty.
_HALTED = 2**62


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
    if work is None:
        return count
    per_worker = WORK_PER_WORKER * (1 if blas_threads() == 1 else THREADED_BLAS_WORK)
    return max(1, min(count, int(work // per_worker)))


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


def completed(fn, tasks: list):
    """Yield (index, fn(*tasks[index])) for every task, as each finishes, on
    ``workers(len(tasks))`` forked workers that deal the tasks among
    themselves. This process computes none of them: it only collects.

    An exception from a task is raised here with its own type, and no task
    starts after it. A worker that dies raises ``WorkerError`` naming its
    task. Every worker is stopped and reaped before this returns or raises.
    """
    count = workers(len(tasks))
    if count == 1:
        for index, task in enumerate(tasks):
            yield index, fn(*task)
        return

    @functools.wraps(fn)  # a dead worker's error names fn
    def deal(worker):
        for index in gang.deal(worker, len(tasks)):
            try:
                result = fn(*tasks[index])
            except Exception as exc:
                gang.halt()
                gang.send((index, None, exc))
                return
            gang.send((index, result, None))

    with Gang([deal]) as gang:
        gang.fork(count + 1)  # this process is worker 0, which takes no task
        for index, result, error in gang.collect(0):
            if error is not None:
                raise error
            yield index, result


class Gang:
    """This process as worker 0 and ``count - 1`` forked workers that run
    each phase together: ``run(phase)`` calls ``phases[phase](worker)`` on
    every worker and returns when all have finished it; ``collect(phase)``
    calls it on the forked workers only and yields what they ``send``, as it
    arrives.

    A phase splits its work by worker number, or takes tasks one at a time
    from ``deal``, a queue that every worker of the phase shares, so a
    worker that another process slows down simply takes fewer.

    ``fork`` starts the workers; until then ``run`` calls this process's
    share alone. Workers see what this process wrote into ``shared_array``s
    before it starts a phase, and it sees what they wrote once the phase
    ends: one pipe byte to each worker starts a phase, and a frame back ends
    it. A worker that dies or raises ends the phase with ``WorkerError``
    naming the phase, or the task it died on; leaving the ``with`` block
    stops and reaps every worker.
    """

    @staticmethod
    def workers(tasks: int, work: float) -> int:
        """``workers(tasks, work / LOCKSTEP_WORK)`` when BLAS runs one
        thread per process, else 1. The phases run in lockstep, so a worker
        whose core another process's BLAS thread takes holds up every step:
        with two BLAS threads per process, a two-worker training took
        3.4-3.8 s on a 2-core machine against 2.0 s in one process."""
        return workers(tasks, work / LOCKSTEP_WORK) if blas_threads() == 1 else 1

    def __init__(self, phases: list):
        self.phases = phases
        self.size = 1  # workers, this process included
        self._workers = []  # (pid, pipe to it, pipe from it)
        self._queue = None  # the next task to deal, then each worker's current task
        self._lock = None  # a file whose lock a worker holds to take a task
        self._reply = None  # in a forked worker, its pipe to this process

    def __enter__(self) -> "Gang":
        return self

    def __exit__(self, kind, *_) -> None:
        self.close(kill=kind is not None)

    def fork(self, count: int) -> None:
        """Start ``count - 1`` workers, after which every phase runs on all ``count``."""
        self.size = count
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
                    self._reply = done_write
                    self._work(worker, go_read)
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

    def send(self, value) -> None:
        """From a forked worker, hand ``value`` to this process's ``collect``."""
        _write_frame(self._reply, (_VALUE, value))

    def _work(self, worker: int, go) -> None:
        code = 0
        try:
            while phase := os.read(go, 1):
                try:
                    self.phases[phase[0]](worker)
                except BaseException as exc:
                    self.halt()
                    _write_frame(self._reply, (_FAILED, f"{type(exc).__name__}: {exc}"))
                    code = 1
                    break
                _write_frame(self._reply, (_DONE, None))
        finally:
            os._exit(code)

    def run(self, phase: int) -> None:
        """Run ``phase`` on every worker, this process included."""
        self._start(phase)
        self.phases[phase](0)
        for _ in self._replies(phase):
            pass

    def collect(self, phase: int):
        """Run ``phase`` on the forked workers only and yield what they send."""
        self._start(phase)
        yield from self._replies(phase)

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

    def _replies(self, phase: int):
        """Yield the values the forked workers send, as they arrive, until
        each has ended ``phase``. Every worker's pipe is drained as it fills,
        so a worker blocked on a full pipe never waits for another."""
        name = self.phases[phase].__name__
        pending = {done: worker for worker, (_, _, done) in enumerate(self._workers, 1)}
        poller = select.poll()
        for done in pending:
            poller.register(done, select.POLLIN)
        while pending:
            for fd, _ in poller.poll():
                worker = pending[fd]
                frame = _read_frame(fd)
                if frame is None:
                    task = int(self._queue[1 + worker])
                    if task >= 0:
                        raise WorkerError(f"a worker died running task {task} of {name}")
                    raise WorkerError(f"gang worker {worker} died in phase {name}")
                kind, value = frame
                if kind == _VALUE:
                    yield value
                elif kind == _FAILED:
                    raise WorkerError(f"gang worker {worker} failed: {value} in phase {name}")
                else:
                    poller.unregister(fd)
                    del pending[fd]

    def close(self, kill: bool = False) -> None:
        """Stop every worker (at once with ``kill``, else after its phase) and reap it."""
        for pid, go, done in self._workers:
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.close(go)
            os.close(done)
        for pid, _, _ in self._workers:
            os.waitpid(pid, 0)
        if self._lock is not None:
            self._lock.close()
        self._workers, self._lock = [], None
        self.phases = []  # phases that refer to the gang would keep it and their arrays alive


def _write_frame(fd: int, value) -> None:
    """Write ``value`` pickled, after its length, whatever the pipe holds at once."""
    data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_frame(fd: int):
    """The value of the next frame on ``fd``, or None at the end of the pipe."""
    header = _read(fd, 8)
    data = header and _read(fd, int.from_bytes(header, "little"))
    return None if data is None else pickle.loads(data)


def _read(fd: int, size: int) -> bytes | None:
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)
