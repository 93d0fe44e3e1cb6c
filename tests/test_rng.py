import sys
import threading

import pytest

from tpi import rng
from tpi.rng import map_in_order


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count, restored afterwards."""
    api = rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    before = get()
    yield get, set_
    set_(before)


def test_pooled_map_runs_at_one_blas_thread_and_restores_the_count(blas_threads):
    get, set_ = blas_threads
    set_(3)
    assert map_in_order(lambda i: get(), 4, threads=2) == [1, 1, 1, 1]
    assert get() == 3

    def nested(i):
        return map_in_order(lambda j: (i, j, get()), 2, threads=2)

    assert map_in_order(nested, 3, threads=2) == [[(i, j, 1) for j in range(2)]
                                                   for i in range(3)]
    assert get() == 3

    def fails(i):
        if i == 2:
            raise ValueError("worker failed")
        return get()

    with pytest.raises(ValueError, match="worker failed"):
        map_in_order(fails, 4, threads=2)
    assert get() == 3


def test_one_worker_leaves_the_blas_count_alone(blas_threads):
    get, set_ = blas_threads
    set_(3)
    assert map_in_order(lambda i: get(), 3, threads=1) == [3, 3, 3]
    assert map_in_order(lambda i: get(), 1, threads=4) == [3]
    assert get() == 3


def test_missing_blas_library_is_a_no_op(tmp_path, monkeypatch):
    assert rng._openblas_threads(tmp_path / "empty") is None
    (tmp_path / "libscipy_openblas64_-0000.so").write_bytes(b"not a library")
    assert rng._openblas_threads(tmp_path) is None
    monkeypatch.setattr(rng, "_openblas_threads", lambda: None)
    assert map_in_order(lambda i: i * i, 4, threads=2) == [0, 1, 4, 9]


def test_overlapping_pooled_maps_keep_one_blas_thread(blas_threads):
    # four threads each open pooled maps that overlap the others'; with a
    # short switch interval, a lost save or restore would let a worker see
    # a count other than 1 or leave the count changed afterwards
    get, set_ = blas_threads
    set_(3)
    seen = []

    def client():
        for _ in range(20):
            seen.extend(map_in_order(lambda i: get(), 3, threads=3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client) for _ in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients)
    assert len(seen) == 4 * 20 * 3 and set(seen) == {1}
    assert get() == 3
