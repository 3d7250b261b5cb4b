"""An ordered map over forked worker processes, shared by ``bench``
replications and large dataset writes so that both follow one worker rule
(``worker_count``). Results come back in task order, so they do not depend
on the worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager


def worker_count(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks: one per CPU this process may
    run on (its affinity mask, so ``taskset`` limits it; every CPU where, as
    on macOS, ``os.sched_getaffinity`` is missing), at most one per task,
    and none inside a daemonic process, which cannot have children. With
    one worker, ``ordered_map`` runs in the calling process."""
    if mp.current_process().daemon:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_tasks)


@contextmanager
def ordered_map(fn, tasks: list, chunksize: int = 1):
    """Yield an iterator of ``fn(task)`` over ``tasks``, in task order.

    With more than one worker the results are computed by a pool of forked
    processes and arrive as they complete, so a caller can consume each one
    before the next. The pool's workers are gone when the ``with`` block
    exits or raises; on an exception they are terminated. The first failure
    in task order is raised, as the serial map raises it.
    """
    workers = worker_count(len(tasks))
    if workers <= 1:
        yield map(fn, tasks)
        return
    # fork, not spawn: a spawned worker would import numpy and scipy afresh,
    # which takes longer than a typical grid or dataset write.
    pool = mp.get_context("fork").Pool(workers)
    try:
        yield pool.imap(fn, tasks, chunksize=chunksize)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
