"""`ordered_map`: a function over a stream of items, run in forked worker
processes, its results given back in the items' order.

Item *i* goes to worker *i* mod *n* over that worker's own task pipe, and
its result comes back over the worker's own result pipe. A worker holds at
most one item at a time, and the caller makes the next one while the
workers run, so no more than about *n* + 1 items and results exist at once.

Only the caller holds the write end of a worker's task pipe and the read
end of its result pipe. So when the caller closes them, or dies, a waiting
worker reads end of file and exits, and a busy one exits when it sends its
result; a worker that dies shows as end of file on its result pipe, and
the map raises `WorkerExitError` instead of waiting. Every worker is
reaped before the map returns or raises, so none outlives it, and a
reaped worker's peak memory counts in its caller's `RUSAGE_CHILDREN`.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from itertools import chain, islice
from typing import BinaryIO

from .errors import WorkerExitError


def ordered_map(job: Callable, items: Iterable, workers: int) -> Iterator:
    """`map(job, items)`. With `workers` > 1 and a second item, `job` runs
    in up to `workers` forked processes, the first forked when the second
    item has been made, and one more for each item until there are
    `workers`; an exception `job` raises is pickled back and raised here.
    Otherwise `job` runs in this process. Close the map (or run it out) to
    reap the workers."""
    items = iter(items)
    head = list(islice(items, 2 if workers > 1 else 0))
    if len(head) < 2:
        yield from map(job, chain(head, items))
        return
    items = chain(head, items)
    del head
    pool: list[_Worker] = []
    try:
        pending: deque[_Worker] = deque()
        for i, item in enumerate(items):
            if len(pool) < workers:
                pool.append(_fork(job, pool))
            worker = pool[i % workers]
            # first the result of item i - workers, which the worker still holds
            done = [pending.popleft().receive()] if len(pending) == workers else []
            worker.send(item)
            pending.append(worker)
            yield from done
        while pending:
            yield pending.popleft().receive()
    finally:
        for worker in pool:
            worker.reap()


class _Worker:
    """The caller's side of one worker: its pid and the ends of its pipes."""

    def __init__(self, pid: int, tasks: BinaryIO, results: BinaryIO):
        self.pid, self.tasks, self.results = pid, tasks, results

    def send(self, item) -> None:
        _send(self.tasks, item)

    def receive(self):
        try:
            ok, value = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            raise WorkerExitError(f"a worker process ended with status {self.reap()} "
                                  f"before returning its result") from None
        if not ok:
            raise value
        return value

    def reap(self) -> int | None:
        """Close this side's pipes, which ends the worker, and wait for it;
        its exit code, or None if it was reaped before."""
        with suppress(OSError):     # what a dead worker left unsent
            self.tasks.close()
        self.results.close()
        if self.pid is None:
            return None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _send(pipe: BinaryIO, value) -> None:
    pickle.dump(value, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _pipe() -> tuple[BinaryIO, BinaryIO]:
    reader, writer = os.pipe()
    return open(reader, "rb"), open(writer, "wb")


def _fork(job: Callable, earlier: list[_Worker]) -> _Worker:
    """Fork a worker that runs `job` on each item it receives; it closes
    this side's pipe ends of the `earlier` workers."""
    task_reader, task_writer = _pipe()
    result_reader, result_writer = _pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for end in (task_writer, result_reader,
                        *(end for w in earlier for end in (w.tasks, w.results))):
                end.close()
            _serve(job, task_reader, result_writer)
            code = 0
        finally:
            os._exit(code)      # no exit handlers and no flush of the caller's buffers
    task_reader.close()
    result_writer.close()
    return _Worker(pid, task_writer, result_reader)


def _serve(job: Callable, tasks: BinaryIO, results: BinaryIO) -> None:
    """Send `(True, job(item))`, or `(False, exception)`, for each item."""
    while True:
        try:
            item = pickle.load(tasks)
        except EOFError:
            return
        try:
            out = (True, job(item))
        except Exception as e:  # noqa: BLE001 (the caller raises it)
            out = (False, e)
        del item
        _send(results, out)
