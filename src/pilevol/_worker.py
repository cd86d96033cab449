"""The one worker thread that runs half of a split call beside the caller.

The fine filter's two x-slabs, the two halves of a binary PLY read and
the voxel pass's per-axis cells and per-cell sums each run one half on
the calling thread and the other on this worker.  A call is worth
splitting only when each half releases the GIL for most of its time:
file I/O, or numpy and scipy calls on arrays of about 100k elements.

A kernel that runs on the worker calls only numpy, scipy and ``os``,
never a pilevol function through a module global: a tracer may rebind
those, and it keeps one span stack for one thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

_pool: ThreadPoolExecutor | None = None
_pool_pid = -1


def _worker() -> ThreadPoolExecutor:
    """The worker, started on first use in each process: a forked child
    inherits the parent's pool object but not its thread.  Two callers
    that race here at most start a spare pool, whose thread exits once it
    is dropped.
    """
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool = ThreadPoolExecutor(max_workers=1,
                                   thread_name_prefix="pilevol-worker")
        _pool_pid = os.getpid()
    return _pool


def both(fn, args0: tuple, args1: tuple) -> tuple:
    """``fn(*args0)`` on the calling thread while the worker runs
    ``fn(*args1)``; both results, in that order.

    The worker's half is waited for even when the caller's raises, so no
    half outlives the call.
    """
    future = _worker().submit(fn, *args1)
    try:
        mine = fn(*args0)
    except BaseException:
        wait((future,))
        raise
    return mine, future.result()
