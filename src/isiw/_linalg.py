"""Small shared linear-algebra helpers (Cholesky with pivot reporting,
batched triangular solves, OpenBLAS thread control).

OpenBLAS threads by default on every core, and its idle threads spin. The
dense work of a fit or a kriging call is on matrices of at most about a
thousand rows, where those threads gain little on their own and cost much
when two processes share the cores. ``inference.fit`` and
``kriging.krige`` therefore run inside :func:`one_blas_thread`, and process
pools get their parallelism from ``set_blas_threads(1)`` in each worker.
On a BLAS without a known thread getter and setter (or without /proc)
both are no-ops.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np
from scipy.linalg.lapack import dpotrf


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
# (argtypes, restype) of each OpenBLAS entry point used here
_OPENBLAS_SIGNATURES = {
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
}


@functools.cache
def _openblas_calls(name: str) -> dict:
    """``{library path: function}`` for the OpenBLAS ``openblas_<name>``
    entry point of every OpenBLAS library mapped into this process, with
    its signature declared. Empty where the process map is unreadable (no
    /proc) or no library exports a known form of the symbol.

    Cached per name, so the libraries are those mapped at the first call.
    This module imports ``scipy.linalg.lapack``, so numpy's and scipy's
    OpenBLAS are both loaded by then. A forked child inherits the cache
    together with the mapping it describes."""
    argtypes, restype = _OPENBLAS_SIGNATURES[name]
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return {}
    paths = {f[5].strip() for f in fields if len(f) == 6}
    calls = {}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOL_FORMS:
            func = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
            if func is not None:
                func.argtypes, func.restype = argtypes, restype
                calls[path] = func
                break
    return calls


def blas_threads() -> dict:
    """``{library path: thread count}`` for each loaded OpenBLAS."""
    return {path: get() for path, get in _openblas_calls("get_num_threads").items()}


def set_blas_threads(n: int) -> None:
    """Limit every loaded OpenBLAS to ``n`` threads; a no-op for a BLAS
    without a known setter. Process-pool workers call this so that each
    runs single-threaded BLAS instead of oversubscribing the cores."""
    for set_threads in _openblas_calls("set_num_threads").values():
        set_threads(n)


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, and restore
    each library's own previous count on exit, also when the body raises.
    Only libraries with both a known getter and setter are touched, so on
    a BLAS without them the scope is a no-op. Thread counts are
    process-wide: scopes nest, but two Python threads must not be inside
    scopes at once."""
    setters = _openblas_calls("set_num_threads")
    before = {path: n for path, n in blas_threads().items() if path in setters}
    for path in before:
        setters[path](1)
    try:
        yield
    finally:
        for path, n in before.items():
            setters[path](n)
