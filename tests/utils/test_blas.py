"""Tests for repro.utils.blas: the process-wide OpenBLAS thread cap."""

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
