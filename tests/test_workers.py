"""`workers.ordered_map` gives `map`'s results in order from forked
processes, raises what a job raises, and leaves no process behind."""

import os

import pytest

from oracles import no_child_left
from tabrep.errors import ShapeMismatchError
from tabrep.workers import ordered_map


def forked_pid(item):
    return item, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 23])
def test_results_come_in_order_from_up_to_workers_processes(workers, n):
    got = list(ordered_map(forked_pid, range(n), workers))
    assert [item for item, _ in got] == list(range(n))
    pids = {pid for _, pid in got}
    if workers == 1 or n < 2:
        assert pids <= {os.getpid()}         # one chunk, or one CPU: in this process
    else:
        assert os.getpid() not in pids and len(pids) == min(workers, n)
    assert no_child_left()


def failing(item):
    if item == 7:
        raise ShapeMismatchError("op", (item,), (1, 2))
    return item


def test_a_job_error_is_raised_in_order_and_the_workers_are_reaped():
    got = []
    with pytest.raises(ShapeMismatchError, match=r"op: incompatible shapes \(7,\) vs \(1, 2\)"):
        for item in ordered_map(failing, range(20), 3):
            got.append(item)
    assert got == list(range(7))
    assert no_child_left()


def test_a_closed_map_reaps_its_workers():
    results = ordered_map(forked_pid, range(20), 3)
    assert next(results)[0] == 0
    results.close()
    assert no_child_left()
