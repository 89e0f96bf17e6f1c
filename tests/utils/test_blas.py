"""Tests for repro.utils.blas: the process-wide OpenBLAS thread cap."""

import sys
import threading
import time

import pytest

from repro.utils import blas

# The cap exists for the server's worker threads; run with its suite.
pytestmark = pytest.mark.serving


class FakeLibrary:
    """Stands in for one loaded OpenBLAS: a settable thread count."""

    def __init__(self, name, threads):
        self.name = name
        self.threads = threads
        self.sets = []

    def get_threads(self):
        return self.threads

    def set_threads(self, count):
        self.sets.append(count)
        self.threads = count


@pytest.fixture()
def fake_libraries(monkeypatch):
    def install(cores, **threads):
        libraries = [FakeLibrary(name, count) for name, count in threads.items()]
        monkeypatch.setattr(blas, "_core_count", lambda: cores)
        monkeypatch.setattr(blas, "_openblas_libraries", lambda: libraries)
        monkeypatch.setattr(blas, "_resolved", libraries)
        return libraries

    return install


@pytest.mark.parametrize("workers, expected", [(1, 6), (2, 3), (3, 2)])
def test_cap_is_cores_over_workers(fake_libraries, workers, expected):
    (lib,) = fake_libraries(cores=6, libfake=6)
    assert blas.cap_blas_threads(workers) == {"libfake": 6}
    assert lib.threads == expected


def test_cap_never_drops_below_one(fake_libraries):
    (lib,) = fake_libraries(cores=2, libfake=2)
    blas.cap_blas_threads(3)
    assert lib.threads == 1


def test_cap_never_raises_a_count(fake_libraries):
    # An explicit OPENBLAS_NUM_THREADS=1 on a 4-core machine stays 1.
    (lib,) = fake_libraries(cores=4, libfake=1)
    assert blas.cap_blas_threads(1) == {"libfake": 1}
    assert lib.threads == 1
    assert lib.sets == []


def test_restore_sets_back_every_named_library(fake_libraries):
    first, second = fake_libraries(cores=2, liba=2, libb=4)
    previous = blas.cap_blas_threads(2)
    assert (first.threads, second.threads) == (1, 1)
    blas.restore_blas_threads(previous)
    assert (first.threads, second.threads) == (2, 4)


def test_both_openblas_copies_capped_then_restored(monkeypatch):
    import numpy  # noqa: F401 - maps NumPy's libscipy_openblas64_
    import scipy.stats  # noqa: F401 - maps SciPy's libscipy_openblas

    original = blas.blas_thread_counts()
    if len(original) < 2:
        pytest.skip(f"expected NumPy's and SciPy's OpenBLAS, got {original}")
    monkeypatch.setattr(blas, "_core_count", lambda: 2)
    blas.restore_blas_threads({name: 2 for name in original})
    try:
        previous = blas.cap_blas_threads(2)
        assert previous == {name: 2 for name in original}
        assert blas.blas_thread_counts() == {name: 1 for name in original}
        blas.restore_blas_threads(previous)
        assert blas.blas_thread_counts() == previous
    finally:
        blas.restore_blas_threads(original)
    assert blas.blas_thread_counts() == original


def test_no_openblas_mapped_is_a_noop(monkeypatch, tmp_path):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f0000000000-7f0000001000 r-xp 00000000 08:01 42 /usr/lib/libc.so.6\n"
        "7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0 [stack]\n"
    )
    monkeypatch.setattr(blas, "MAPS_PATH", str(maps))
    assert blas.blas_thread_counts() == {}
    assert blas.cap_blas_threads(2) == {}
    blas.restore_blas_threads({"libscipy_openblas64_.so": 2})  # nothing to set


def test_unreadable_maps_is_a_noop(monkeypatch, tmp_path):
    monkeypatch.setattr(blas, "MAPS_PATH", str(tmp_path / "missing"))
    assert blas.cap_blas_threads(2) == {}


def test_current_threads_resolves_the_libraries_once(monkeypatch):
    libraries = [FakeLibrary("liba", 4), FakeLibrary("libb", 2)]
    resolutions = []

    def resolve():
        resolutions.append(1)
        return libraries

    monkeypatch.setattr(blas, "_resolved", None)
    monkeypatch.setattr(blas, "_openblas_libraries", resolve)
    assert blas.current_blas_threads() == 2
    libraries[1].threads = 3
    assert blas.current_blas_threads() == 3
    assert len(resolutions) == 1


def test_current_threads_is_one_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_resolved", [])
    assert blas.current_blas_threads() == 1


def test_nested_scopes_cap_and_the_last_exit_restores(fake_libraries):
    (lib,) = fake_libraries(cores=4, libfake=4)
    with blas.blas_scope(2):
        assert lib.threads == 2
        with blas.blas_scope(4):
            assert lib.threads == 1
        assert lib.threads == 1  # the outer scope still runs
    assert lib.threads == 4


def test_scope_never_raises_a_count(fake_libraries):
    (lib,) = fake_libraries(cores=4, libfake=1)
    with blas.blas_scope(2):
        assert lib.threads == 1
    assert lib.threads == 1
    assert set(lib.sets) <= {1}


def test_scope_restores_when_its_body_raises(fake_libraries):
    (lib,) = fake_libraries(cores=2, libfake=2)
    with pytest.raises(RuntimeError):
        with blas.blas_scope(2):
            raise RuntimeError("chunk failed")
    assert lib.threads == 2


def test_overlapping_scopes_from_many_threads_restore_once(fake_libraries):
    (lib,) = fake_libraries(cores=2, libfake=2)
    seen = []

    def enter_and_leave():
        for _ in range(200):
            with blas.blas_scope(2):
                time.sleep(0)  # let another thread enter or leave
                seen.append(lib.threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    # A scope restored under another would let that one run uncapped.
    assert set(seen) == {1}
    assert lib.threads == 2
