"""pool.run_shares, the one os.fork site: it cuts its items into
consecutive shares, runs share 0 here and each other in a forked child,
and returns fn(items). A share whose child is lost runs here, and no
child may outlive the call."""

import os
import time

import numpy as np
import pytest

from msclust.pool import run_shares

from helpers import assert_no_child_left


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from this process."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def squares(share):
    return [x * x for x in share]


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("size", range(8))
def test_the_shares_give_fn_of_all_items(size, count, forks):
    items = list(range(size))
    assert run_shares(squares, items, count) == squares(items)
    assert len(forks) == max(1, min(count, size)) - 1


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("items", [list(range(7)), range(10, 15), np.arange(6)],
                         ids=["list", "range", "array"])
def test_shares_are_consecutive_as_array_split_cuts_them(items, count):
    shares = run_shares(lambda share: [list(share)], items, count)
    assert shares == [list(s) for s in np.array_split(items, min(count, len(items)))]


@pytest.mark.parametrize("loss", ["exit", "raise"])
def test_a_lost_share_runs_here(loss):
    parent, ran = os.getpid(), []

    def fn(share):
        if os.getpid() != parent:
            if loss == "exit":
                os._exit(0)  # before the child sends anything
            raise RuntimeError("in a child")
        ran.extend(share)
        return squares(share)

    assert run_shares(fn, list(range(7)), 3) == squares(range(7))
    assert ran == [0, 1, 2, 3, 4, 5, 6]  # share order: [0, 1, 2] [3, 4] [5, 6]


def test_a_failing_share_raises_its_error_here(forks):
    parent, ran = os.getpid(), []

    def fn(share):
        if os.getpid() == parent:
            ran.extend(share)
        if 3 in share:
            raise RuntimeError("share 1 failed")
        return squares(share)

    with pytest.raises(RuntimeError, match="share 1 failed"):
        run_shares(fn, list(range(7)), 3)
    assert len(forks) == 2
    assert ran == [0, 1, 2, 3, 4]  # share 2 is not run here


def test_a_failure_in_share_0_runs_no_other_share(forks):
    parent, ran = os.getpid(), []

    def fn(share):
        if os.getpid() != parent:
            time.sleep(60)  # killed, never collected
        ran.extend(share)
        raise RuntimeError("share 0 failed")

    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="share 0 failed"):
        run_shares(fn, list(range(7)), 3)
    assert time.perf_counter() - started < 30
    assert len(forks) == 2
    assert ran == [0, 1, 2]
