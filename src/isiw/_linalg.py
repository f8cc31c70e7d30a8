"""Small shared linear-algebra helpers (Cholesky with pivot reporting,
batched triangular solves, blocks of evaluation targets, OpenBLAS thread
control).

OpenBLAS threads by default on every core, and its idle threads spin. The
dense work of a fit or a kriging call is on matrices of at most about a
thousand rows, where those threads gain little on their own and cost much
when two processes share the cores. Every replicate cell
(``experiment.run_replicate``), in process or in a pool worker, therefore
runs inside :func:`one_blas_thread`, and so do ``inference.fit`` and
``kriging.krige`` when called alone. The thread entry points of every
loaded OpenBLAS are found once, by one scan of /proc/self/maps; on a BLAS
without them (or without /proc) the scope is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np
from scipy.linalg.lapack import dpotrf

# targets per block of a targets x n evaluation: 0.8 MB per block at n = 400
TARGET_BLOCK = 256


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed; ``pivot`` is the 1-based order of the
    first non-positive-definite leading minor."""

    def __init__(self, pivot: int, context: str = ""):
        self.pivot = int(pivot)
        msg = f"matrix not positive definite (failing pivot {self.pivot})"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


def cholesky_lower(a: np.ndarray, context: str = "", overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, raising
    NotPositiveDefiniteError with the failing pivot index on breakdown.

    LAPACK works on Fortran-ordered arrays, so by default f2py factors a
    copy of ``a``. With ``overwrite`` a C-ordered ``a`` is handed over as
    its transpose, which is the same matrix and Fortran-ordered, and the
    factor is written into ``a``'s own buffer: the caller must not read
    ``a`` afterwards. The factor's values are the same either way."""
    if overwrite:
        a = a.T
    c, info = dpotrf(a, lower=1, clean=1, overwrite_a=int(overwrite))
    if info > 0:
        raise NotPositiveDefiniteError(info, context)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def target_blocks(count: int):
    """Slices of ``TARGET_BLOCK`` consecutive targets out of ``count``, in
    order, so that a caller never holds a whole targets x n matrix.

    A last block of fewer than 4 targets joins the block before it:
    OpenBLAS multiplies a matrix of fewer than 4 rows by a vector along
    another path, whose bits differ from those of the same rows inside one
    product over all targets. With that, and on one BLAS thread, a product
    taken block by block equals the unblocked one bit for bit."""
    starts = list(range(0, count, TARGET_BLOCK))
    if len(starts) > 1 and count - starts[-1] < 4:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [count]):
        yield slice(start, stop)


def forward_solve_batched(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L z = b for a stack of lower-triangular factors.

    ``chol`` has shape (B, k, k), ``rhs`` shape (B, k), or (c, B, k) for c
    right-hand sides per factor; returns the shape of ``rhs``. Plain
    forward substitution vectorized across the batch; fine for the small k
    used by conditioning blocks. Each right-hand side's solution is the
    same, bit for bit, whether it is solved alone or in a stack.
    """
    k = rhs.shape[-1]
    z = np.empty_like(rhs)
    for j in range(k):
        acc = rhs[..., j]
        if j:
            acc = acc - np.einsum("bl,...bl->...b", chol[:, j, :j], z[..., :j])
        z[..., j] = acc / chol[:, j, j]
    return z


def backward_solve_batched(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = b for a stack of lower-triangular factors; shapes as in
    :func:`forward_solve_batched`."""
    k = rhs.shape[-1]
    x = np.empty_like(rhs)
    for j in range(k - 1, -1, -1):
        acc = rhs[..., j]
        if j < k - 1:
            acc = acc - np.einsum("bl,...bl->...b", chol[:, j + 1 :, j], x[..., j + 1 :])
        x[..., j] = acc / chol[:, j, j]
    return x


# numpy and scipy wheels each bundle their own OpenBLAS, with prefixed (and,
# for numpy's 64-bit-integer build, suffixed) symbol names
_OPENBLAS_SYMBOL_FORMS = [
    (prefix, suffix) for prefix in ("scipy_", "") for suffix in ("64_", "")
]


@functools.cache
def _openblas_libraries() -> dict:
    """``{library path: (get_num_threads, set_num_threads)}`` for every
    OpenBLAS library mapped into this process that exports both thread
    entry points in one known form, with their signatures declared. Empty
    where the process map is unreadable (no /proc) or no library exports
    them.

    Built from one scan of the process map at the first call, so the
    libraries are those mapped then. This module imports
    ``scipy.linalg.lapack``, so numpy's and scipy's OpenBLAS are both
    loaded by then. A forked child inherits the table together with the
    mapping it describes."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return {}
    paths = {f[5].strip() for f in fields if len(f) == 6}
    table = {}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOL_FORMS:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                table[path] = (get, set_)
                break
    return table


def blas_threads() -> dict:
    """``{library path: thread count}`` for each loaded OpenBLAS."""
    return {path: get() for path, (get, _) in _openblas_libraries().items()}


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, and restore
    each library's own previous count on exit, also when the body raises.
    On a BLAS without known thread entry points the scope is a no-op.
    Thread counts are process-wide: scopes nest, but two Python threads
    must not be inside scopes at once."""
    before = blas_threads()
    for _, set_threads in _openblas_libraries().values():
        set_threads(1)
    try:
        yield
    finally:
        for path, (_, set_threads) in _openblas_libraries().items():
            set_threads(before[path])
