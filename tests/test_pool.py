"""pool.Gang's dealt tasks and pool.each, on small stand-in tasks."""

import os
import signal
import time

import numpy as np
import pytest

from standbench import pool

pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"), reason="the gang forks"),
              pytest.mark.usefixtures("bounded")]


def test_deal_hands_out_every_task_once_for_any_count():
    # three workers on fewer cores race for the queue; a task dealt twice or
    # never breaks the count
    tasks = 40000  # more 4-byte indices than a 64 KiB pipe holds
    taken = pool.shared_array((3, tasks), np.int8)  # a row per worker

    def take(worker):
        for index in gang.deal(worker, tasks):
            taken[worker, index] = 1

    with pool.Gang([take]) as gang:
        gang.fork(3)
        for _ in range(2):  # each phase deals from a full queue again
            taken[...] = 0
            gang.run(0)
            assert (taken.sum(axis=0) == 1).all()


@pytest.mark.usefixtures("one_blas_thread")
def test_each_raises_a_tasks_error_and_starts_no_task_after_it(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    started = pool.shared_array(20, np.int64)

    def task(index):
        started[index] = 1
        if index == 3:
            raise KeyError("task three")
        time.sleep(0.02)

    with pytest.raises(pool.WorkerError, match="failed: KeyError: 'task three' in phase task"):
        pool.each(task, [(index,) for index in range(20)])
    # the other worker may have been running task 4; none took a later one
    assert started[:5].sum() >= 4 and started[5:].sum() == 0


@pytest.mark.usefixtures("one_blas_thread")
def test_after_a_failure_the_other_worker_ends_its_task_and_takes_no_other(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    started = pool.shared_array(10, np.int64)
    finished = pool.shared_array(10, np.int64)

    def task(index):
        started[index] = 1
        if index == 0:  # fails once the other worker holds task 1
            deadline = time.monotonic() + 30
            while not started[1] and time.monotonic() < deadline:
                time.sleep(0.001)
            raise ValueError("task zero")
        time.sleep(0.3)
        finished[index] = 1

    with pytest.raises(pool.WorkerError, match="ValueError: task zero"):
        pool.each(task, [(index,) for index in range(10)])
    # raised only after task 1 ran to its end, and no task started after the failure
    assert started[:2].all() and finished[1] == 1 and started[2:].sum() == 0


def test_threaded_blas_runs_each_in_this_process(monkeypatch):
    # BLAS threads would take the cores from the workers, so none is forked
    monkeypatch.setattr(pool, "blas_threads", lambda: 2)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pool.Gang, "fork", lambda gang, count: pytest.fail("forked"))
    ran = []

    def task(index, fails=False):
        ran.append((index, os.getpid()))
        if fails:
            raise KeyError(f"task {index}")

    pool.each(task, [(index,) for index in range(5)])
    assert ran == [(index, os.getpid()) for index in range(5)]
    with pytest.raises(KeyError, match="task 1"):  # its own type, as no worker ran it
        pool.each(task, [(0,), (1, True), (2,)])
    assert ran[5:] == [(0, os.getpid()), (1, os.getpid())]  # and no task started after it


def test_a_worker_that_dies_taking_a_task_holds_up_no_other():
    # worker 1 is killed inside the queue's lock; this process, worker 0,
    # still takes every task and then reports the death
    dying = pool.shared_array(1, np.int64)
    taken = []

    class KilledOnRead:  # the queue as worker 1 sees it: reading it kills the worker
        def __init__(self, queue):
            self.queue = queue

        def __getitem__(self, index):
            dying[0] = 1
            os.kill(os.getpid(), signal.SIGKILL)

    def take(worker):
        if worker == 1:
            gang._queue = KilledOnRead(gang._queue)
        while worker == 0 and not dying[0]:  # worker 0 starts once worker 1 is inside the lock
            time.sleep(0.001)
        taken.extend(gang.deal(worker, 10))

    with pytest.raises(pool.WorkerError, match="gang worker 1 died in phase take"):
        with pool.Gang([take]) as gang:
            gang.fork(2)
            gang.run(0)
    assert taken == list(range(10))
