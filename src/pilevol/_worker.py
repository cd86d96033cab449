"""The one worker thread that runs half of a split call beside the caller.

Three calls are split.  In the fine filter, its two x-slabs each query
their r0 pairs (``denoise._slab_pairs``) and hook their forest
(``denoise._forest``), one slab on the calling thread and one on this
worker.  In the scene generator (``synth._generate``), the worker draws
each chunk's noise (``synth._draw_noise``) while the caller evaluates
the pile's surface.  A call is worth splitting only when each half
releases the GIL for most of its time, as numpy and scipy calls on arrays
of about 100k elements do, and only where a benchmark shows the gain.

A kernel that runs on the worker calls only numpy and scipy,
never a pilevol function through a module global: a tracer may rebind
those, and it keeps one span stack for one thread.  An object that both
halves could reach, such as the scene's random generator, belongs to one
thread at a time: the caller hands it over before the worker's half
starts and takes it back only once that half has returned.

Jobs run one at a time, in the order they were submitted.  So a caller
never waits on a second worker job while its first job waits on that
caller: the second would queue behind the first, and neither would
finish.  Jobs of two callers may queue behind each other, since each
job waits only on its own caller.
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
