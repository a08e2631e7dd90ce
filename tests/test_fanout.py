import errno
import os

import numpy as np
import pytest

from dopptrack import fanout
from test_harness import assert_no_child


# one process, as many shares as items, and more CPUs than items
@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_split_keeps_order_and_puts_the_largest_share_first(monkeypatch,
                                                            cpus):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    for n in range(12):
        for floor in (1, 100, 250):
            shares = fanout.split(range(n), 100 * n, floor)
            assert [i for share in shares for i in share] == list(range(n))
            assert len(shares) == max(1, min(cpus, n, 100 * n // floor))
            first = len(shares[0])
            assert all(first - 1 <= len(share) <= first for share in shares)


def fan_out_squares(n):
    """The shares of range(n) and, for each item, the process id of the
    share that wrote its square into a shared array; every square is
    checked, and that no child remains."""
    written = fanout.shared((n, 2), np.int64)
    shares = fanout.split(range(n), n, 1)

    def work(share):
        for i in share:
            written[i] = i * i, os.getpid()

    fanout.fan_out(shares, work, "squares")
    assert_no_child()
    np.testing.assert_array_equal(written[:, 0], np.arange(n) ** 2)
    return shares, written[:, 1]


# one process, as many as there are items, and more CPUs than items
@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_children_write_shared_memory_in_place(monkeypatch, cpus):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    shares, pids = fan_out_squares(5)
    assert len(shares) == min(cpus, 5)
    writers = [set(pids[share.start:share.stop]) for share in shares]
    assert writers[0] == {os.getpid()}
    assert all(len(w) == 1 for w in writers)
    assert len(set.union(*writers)) == len(shares)


def test_share_whose_fork_failed_runs_here(monkeypatch):
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    shares, pids = fan_out_squares(5)
    assert len(shares) == 3 and len(forks) == 2
    assert set(pids) == {os.getpid()}
