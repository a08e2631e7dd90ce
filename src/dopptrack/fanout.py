"""Independent work fanned out over the usable CPUs, one forked child per
share.

A caller cuts its items into contiguous shares with `split` and runs them
with `fan_out`: the first share in this process, each later one in a forked
child that writes its result as bytes into an anonymous spill file, which
the caller reads back in order. The result never depends on how many
processes ran: without os.fork there is one share, and a share whose fork
fails is spilled by this process in the child's place.
"""

from __future__ import annotations

import contextlib
import os
import tempfile


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


def _fork(spill, share, f) -> int | None:
    """The pid of a child process that runs spill(share, f), flushes f and
    exits with status 0; None when no child could be started. The child
    leaves through os._exit, so it never returns into the caller's stack."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            spill(share, f)
            f.flush()
            status = 0
        finally:
            os._exit(status)
    return pid


@contextlib.contextmanager
def fan_out(shares, here, spill, what: str, dir=None):
    """Run here(shares[0]) in this process and, in a forked child for each
    later share, spill(share, f), f an anonymous binary file in dir that
    spill fills with the share's result. Yields the later shares' files, in
    order and rewound, and closes them when the with block ends.

    A share whose fork fails is spilled by this process, after here. Every
    child is reaped before this yields or raises; a child that fails raises
    OSError naming what, and an exception of here or of a spill run in this
    process propagates as it is."""
    with contextlib.ExitStack() as files:
        spills = [files.enter_context(tempfile.TemporaryFile(dir=dir))
                  for _ in shares[1:]]
        children = []
        try:
            for share, f in zip(shares[1:], spills):
                children.append(_fork(spill, share, f))
            here(shares[0])
            for share, f, pid in zip(shares[1:], spills, children):
                if pid is None:
                    spill(share, f)
        finally:
            failed = [pid for pid in children if pid is not None
                      and os.waitpid(pid, 0)[1] != 0]
        if failed:
            raise OSError("%s: %d of the %d child processes failed"
                          % (what, len(failed), len(children)))
        for f in spills:
            f.seek(0)
        yield spills
