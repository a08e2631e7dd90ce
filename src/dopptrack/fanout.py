"""Independent work fanned out over the usable CPUs, one forked child per
share.

A caller cuts its items into contiguous shares with `split` and runs them
with `fan_out`: the first share in this process, each later one in a forked
child, which leaves its result where the caller finds it, in a file it
flushes or in an array from `shared`. The result never depends on how many
processes ran: without os.fork there is one share, and a share whose fork
fails runs in this process in the child's place.
"""

from __future__ import annotations

import mmap
import os

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # a platform without CPU affinity
        return os.cpu_count() or 1


def split(items, cost: int, floor: int) -> list:
    """items cut into contiguous shares, in order: one per usable CPU, at
    most one per item and one per floor units of the items' whole cost, and
    at least one. The first share is never smaller than another. Where
    os.fork does not exist there is one share."""
    count = max(1, min(usable_cpus() if hasattr(os, "fork") else 1,
                       len(items), cost // floor))
    # ceil(len * i / count) bounds give the larger shares first
    return [items[-(-len(items) * i // count):
                  -(-len(items) * (i + 1) // count)] for i in range(count)]


def shared(shape, dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory: what a forked child
    writes into it, this process sees."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(size, 1)))


def _fork(work, share) -> int | None:
    """The pid of a child process that runs work(share) and exits with
    status 0; None when no child could be started. The child leaves through
    os._exit, so it never returns into the caller's stack."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            work(share)
            status = 0
        finally:
            os._exit(status)
    return pid


def fan_out(shares, work, what: str) -> None:
    """Run work(shares[0]) in this process and work(share) for each later
    share in a forked child; a share whose fork fails runs in this process,
    after the first. Every child is reaped before this returns or raises; a
    child that fails raises OSError naming what, and an exception of work
    run in this process propagates as it is."""
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(work, share))
        work(shares[0])
        for share, pid in zip(shares[1:], children):
            if pid is None:
                work(share)
    finally:
        failed = [pid for pid in children if pid is not None
                  and os.waitpid(pid, 0)[1] != 0]
    if failed:
        raise OSError("%s: %d of the %d child processes failed"
                      % (what, len(failed), len(children)))
