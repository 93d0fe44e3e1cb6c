"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by an integer seed plus a small integer path (e.g. ``stream(seed, TAG, i)``).
Philox is counter-based, so streams for different paths are statistically
independent and completely insensitive to scheduling: a batch of seeds run
across any number of threads reproduces the single-threaded results bit for
bit.  ``map_in_order`` is the thread pool such batches run on.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidArgumentError


def stream(seed, *path):
    """Return a ``numpy.random.Generator`` for an integer seed and path.

    Parameters
    ----------
    seed : int
        Base entropy. Runs with the same seed and path are identical.
    *path : int
        Optional sub-stream coordinates (experiment tag, trial index, ...).
    """
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def thread_count(explicit=None):
    """Resolve the worker count: explicit argument, else TPI_THREADS, else 1.

    A count that is not an integer >= 1 raises ``InvalidArgumentError``.
    """
    raw = explicit if explicit is not None else os.environ.get("TPI_THREADS", "1")
    try:
        n = int(raw)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"thread count must be an integer, got {raw!r}") from None
    if n < 1:
        raise InvalidArgumentError(f"thread count must be >= 1, got {n}")
    return n


def map_in_order(worker, count, threads=None):
    """Run worker(i) for i in range(count) on ``thread_count(threads)`` threads.

    Results come back in index order, never in completion order, so any
    reduction over the returned list is scheduling-independent.
    """
    workers = thread_count(threads)
    if workers <= 1 or count <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(count)))
