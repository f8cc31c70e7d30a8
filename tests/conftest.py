import pytest

from isiw._linalg import _openblas_libraries, blas_threads


def _restore(counts: dict) -> None:
    for path, n in counts.items():
        _openblas_libraries()[path][1](n)


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail any test that leaves an OpenBLAS on another thread count than it
    found, so a leaked one-thread scope cannot pin the rest of the session."""
    before = blas_threads()
    yield
    after = blas_threads()
    if after != before:
        _restore(before)
        pytest.fail(f"OpenBLAS thread counts changed from {before} to {after}")


@pytest.fixture
def caller_blas_counts():
    """Give each loaded OpenBLAS its own thread count (2, 3, ...) for the
    test, so a scope that restores one shared or default count is caught.
    Yields the counts as read back, and restores the originals. Skips where
    no OpenBLAS getter is loaded."""
    original = blas_threads()
    if not original:
        pytest.skip("this numpy/scipy build loads no OpenBLAS with a thread getter")
    _restore({path: 2 + i for i, path in enumerate(original)})
    try:
        yield blas_threads()
    finally:
        _restore(original)
