"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by an integer seed plus a small integer path (e.g. ``stream(seed, TAG, i)``).
Philox is counter-based, so streams for different paths are statistically
independent and completely insensitive to scheduling: a batch of seeds run
across any number of threads reproduces the single-threaded results bit for
bit.  ``map_in_order`` is the thread pool such batches run on.
"""

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, _check_count


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
    if explicit is None:
        raw = os.environ.get("TPI_THREADS", "1")
        try:
            explicit = int(raw)
        except ValueError:
            raise InvalidArgumentError(f"TPI_THREADS must be an integer, got {raw!r}") from None
    return _check_count(explicit, "thread count")


@functools.cache
def _openblas_threads(libs=None):
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    Looked up on first use through ``ctypes``: the symbols of the
    ``scipy_openblas64_`` build that numpy wheels ship in ``numpy.libs``.
    """
    if libs is None:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_saved = []  # the count each open pooled map found; all but the first are 1


@contextmanager
def _one_blas_thread():
    """Run the body at one OpenBLAS thread, then restore the previous count.

    Pooled maps may nest or overlap: whichever leaves last pops the count
    the first one saved.  Without the library it does nothing.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_lock:
        _blas_saved.append(get())
        set_(1)
    try:
        yield
    finally:
        with _blas_lock:
            set_(_blas_saved.pop())


def map_in_order(worker, count, threads=None):
    """Run worker(i) for i in range(count) on ``thread_count(threads)`` threads.

    Results come back in index order, never in completion order, so any
    reduction over the returned list is scheduling-independent.  With more
    than one worker, OpenBLAS runs at one thread until the map returns: one
    concurrency layer at a time, since a pool of BLAS callers each spawning
    BLAS threads oversubscribes the cores.
    """
    workers = thread_count(threads)
    if workers <= 1 or count <= 1:
        return [worker(i) for i in range(count)]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(count)))
