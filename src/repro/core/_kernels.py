"""Instrumented dense linear-algebra kernels.

All core algorithms (CLS, BSOFI, WRP, baselines) perform their matrix
arithmetic through these wrappers so that

* flop counts flow into the open :func:`repro.telemetry.stage` (the
  evaluation section reports per-stage flop rates), and
* the flop-counting conventions are defined in exactly one place.

Conventions (the standard dense counts the paper uses):

* gemm ``C = A @ B`` with ``A (m, k)``, ``B (k, n)``: ``2 m k n`` flops;
* LU factorisation of ``n x n``: ``2/3 n^3``;
* triangular solve with ``m`` right-hand sides: ``m n^2`` per triangle
  (LU solve with both triangles: ``2 m n^2``);
* Householder QR of ``m x n`` (``m >= n``): ``2 n^2 (m - n/3)``;
* forming the full ``m x m`` Q: ``4/3 m^3`` (loose, adequate for rates).

A product of a real and a complex operand runs as one real gemm on the
complex operand's float64 view (:func:`_mixed_product`), and is counted
as that gemm: ``4 m k n``.  The real operand is never upcast.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from ..telemetry.flops import record_flops

#: A gemm operand: one matrix, a stacked batch, or a sequence of matrices.
Operand = np.ndarray | Sequence[np.ndarray]

__all__ = [
    "gemm",
    "gemm_into",
    "gemm_acc",
    "batched_gemm",
    "add_identity",
    "lu_factor",
    "inverse",
    "solve",
    "solve_right",
    "qr_full",
    "triangular_inverse",
    "triangular_solve",
    "LUFactors",
]


def gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` with flop accounting."""
    m, k = A.shape
    n = B.shape[1]
    if _mixed(A, B):
        record_flops(4.0 * m * k * n, (A.nbytes + B.nbytes) + 16.0 * m * n)
        return _mixed_product(A, B)
    record_flops(2.0 * m * k * n, (A.nbytes + B.nbytes) + 8.0 * m * n)
    return A @ B


def _mixed(A: Operand, B: Operand) -> bool:
    """Whether exactly one of ``A`` and ``B`` is complex."""
    return _is_complex(A) != _is_complex(B)


def _is_complex(X: Operand) -> bool:
    # dtype.kind, not np.iscomplexobj: this runs on every counted gemm.
    if not isinstance(X, np.ndarray):
        if not len(X):
            return False
        X = X[0]
    return X.dtype.kind == "c"


def _float_view(X: np.ndarray) -> np.ndarray:
    """A complex matrix as its ``(m, 2n)`` float view: the real and
    imaginary parts of each entry side by side (copied to C order first
    if its rows are not contiguous)."""
    X = np.ascontiguousarray(X)
    return X.view(X.real.dtype)


def _mixed_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` for one real and one complex matrix, as one real gemm.

    A real left factor multiplies the complex ``B``'s float view, whose
    columns interleave the real and imaginary parts, in one pass.  A real
    right factor does the same on the transposes, ``(A B)^T = B^T A^T``,
    and the result is returned as the transpose view (Fortran order).
    Either way half the arithmetic of a complex gemm on an upcast copy.
    """
    if _is_complex(B):
        return (A @ _float_view(B)).view(B.dtype)
    return (B.T @ _float_view(A.T)).view(A.dtype).T


def gemm_into(out: np.ndarray, A: Operand, B: Operand) -> np.ndarray:
    """``out[:] = A @ B`` without allocating a result array.

    With a leading batch axis on ``out`` this is one counted call for
    the whole batch: ``A`` and ``B`` are each one matrix shared by
    every entry, or a batch with one matrix per entry (an array with a
    leading axis, or a sequence of matrices, which is never stacked).
    It runs one gemm per entry: ``np.matmul`` would stage a batch whose
    views share a buffer with ``out`` through a temporary.
    """
    inner = (A if isinstance(A, np.ndarray) else A[0]).shape[-1]
    mixed = _mixed(A, B)
    flops = (4.0 if mixed else 2.0) * out.size * inner
    record_flops(flops, _nbytes(A) + _nbytes(B) + out.nbytes)
    if out.ndim == 2:
        if mixed:
            out[...] = _mixed_product(A, B)
        else:
            np.matmul(A, B, out=out)
        return out
    for i in range(out.shape[0]):
        if mixed:
            out[i] = _mixed_product(_entry(A, i), _entry(B, i))
        else:
            np.matmul(_entry(A, i), _entry(B, i), out=out[i])
    return out


def _entry(X: Operand, i: int) -> np.ndarray:
    """Entry ``i`` of a batch operand (a shared matrix is every entry)."""
    return X if isinstance(X, np.ndarray) and X.ndim == 2 else X[i]


def _nbytes(X: Operand) -> int:
    return X.nbytes if isinstance(X, np.ndarray) else sum(x.nbytes for x in X)


def gemm_acc(
    out: np.ndarray, A: np.ndarray, B: np.ndarray, alpha: float = 1.0,
    c: np.ndarray | None = None,
) -> np.ndarray:
    """``out[i] = c[i] + alpha * A[i] @ B[i]`` over a leading batch axis
    (``c`` defaults to ``out``: an in-place update).

    One BLAS gemm with ``beta = 1`` per entry, on the transposes: a
    C-ordered ``out[i]`` is the Fortran-ordered ``out[i]^T``, which gemm
    updates where it lies — no product temporary, and no numpy matmul
    inner loop for a thin ``A[i]`` (a rank-1 outer product there runs
    several times slower).  ``c[i]`` is copied in just before its gemm,
    while the block is still in cache.
    """
    record_flops(2.0 * out.size * A.shape[-1], A.nbytes + B.nbytes + out.nbytes)
    fn = get_blas_funcs("gemm", (A, B, out))
    for i in range(out.shape[0]):
        if c is not None:
            out[i] = c[i]
        dst = out[i].T
        res = fn(alpha, B[i].T, A[i].T, beta=1.0, c=dst, overwrite_c=1)
        if not np.shares_memory(res, dst):
            dst[...] = res
    return out


def batched_gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Broadcasted ``A @ B`` over leading batch dimensions, counted.

    A batch of complex ``A`` against one real ``B`` runs as one real gemm
    of the stacked rows (:func:`_mixed_product`)."""
    mixed = _is_complex(A) and not _is_complex(B) and B.ndim == 2
    if mixed:
        out = _mixed_product(A.reshape(-1, A.shape[-1]), B)
        out = out.reshape(A.shape[:-1] + B.shape[-1:])
    else:
        out = np.matmul(A, B)
    m, n = out.shape[-2], out.shape[-1]
    k = A.shape[-1]
    batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
    flops = (4.0 if mixed else 2.0) * batch * m * k * n
    record_flops(flops, A.nbytes + B.nbytes + out.nbytes)
    return out


def add_identity(A: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """In-place ``A += alpha * I`` (cheap; O(n) flops, not counted)."""
    idx = np.arange(min(A.shape))
    A[idx, idx] += alpha
    return A


class LUFactors:
    """Pivoted LU factors of a square matrix, reusable for many solves.

    Solves apply the row permutation and the two triangular solves
    (``trsm``) directly instead of calling LAPACK ``getrs``, which does
    the same arithmetic: the ``getrs`` of the OpenBLAS that scipy
    bundles corrupts the heap when several threads call it at once, as
    the spectral thread teams do.
    """

    __slots__ = ("lu", "piv", "perm", "n")

    def __init__(self, A: np.ndarray):
        self.n = A.shape[0]
        record_flops(2.0 / 3.0 * self.n**3, A.nbytes)
        self.lu, self.piv = sla.lu_factor(A, check_finite=False)
        # getrf's sequential row interchanges as one permutation:
        # (P^T A)[i] = A[perm[i]] = (L U)[i].
        perm = list(range(self.n))
        for i, p in enumerate(self.piv.tolist()):
            perm[i], perm[p] = perm[p], perm[i]
        self.perm = np.array(perm)

    def solve(self, B: np.ndarray, trans: int = 0) -> np.ndarray:
        """Solve ``A X = B`` (``A^T X = B`` when ``trans=1``, ``A^H X = B``
        when ``trans=2``)."""
        nrhs = 1 if B.ndim == 1 else B.shape[1]
        record_flops(2.0 * nrhs * self.n**2, B.nbytes)
        b = B.reshape(self.n, -1)
        trsm = get_blas_funcs("trsm", (self.lu, b))
        if trans == 0:
            # X^T = (P^T B)^T L^{-T} U^{-T}: right-side trsm on the
            # Fortran-ordered view of the permuted copy (see
            # triangular_solve), about 1.4x the left-side pair at N = 100.
            xt = trsm(1.0, self.lu, b[self.perm].T, side=1, lower=1,
                      trans_a=1, diag=1, overwrite_b=1)
            x = trsm(1.0, self.lu, xt, side=1, trans_a=1, overwrite_b=1).T
        else:
            y = trsm(1.0, self.lu, b, trans_a=trans)
            y = trsm(1.0, self.lu, y, lower=1, trans_a=trans, diag=1,
                     overwrite_b=1)
            x = np.empty_like(y)
            x[self.perm] = y
        return x.reshape(B.shape)


def lu_factor(A: np.ndarray) -> LUFactors:
    """Factor ``A`` once; solve many times via :meth:`LUFactors.solve`."""
    return LUFactors(A)


def inverse(A: np.ndarray) -> np.ndarray:
    """Explicit ``A^{-1}``: LU factorisation (``getrf``, ``2/3 n^3``
    flops), then LAPACK ``getri`` (``4/3 n^3``).

    An exactly singular ``A`` gives a NaN matrix for the guards to
    screen, as a solve against ``I`` would give non-finite entries.
    """
    n = A.shape[0]
    getrf, getri, getri_lwork = get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (A,)
    )
    record_flops(2.0 / 3.0 * n**3, A.nbytes)
    lu, piv, info = getrf(A)
    if info > 0:
        return np.full(A.shape, np.nan, dtype=lu.dtype)
    record_flops(4.0 / 3.0 * n**3, A.nbytes)
    lwork, _ = getri_lwork(n)
    inv, _ = getri(lu, piv, lwork=int(lwork.real), overwrite_lu=1)
    return inv


def solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One-shot ``A^{-1} B`` (factor + solve, both counted)."""
    return LUFactors(A).solve(B)


def solve_right(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """One-shot ``B A^{-1}`` = ``(A^{-T} B^T)^T``."""
    return LUFactors(np.ascontiguousarray(A.T)).solve(B.T).T


#: Block size of the compact-WY reflector blocks in :func:`qr_full`.
#: 32 is the fastest of 8..100 for the ``200 x 100`` BSOFI panel on
#: OpenBLAS; any value gives the same reflectors.
_QR_BLOCK = 32


def qr_full(
    A: np.ndarray, out: np.ndarray | None = None, overwrite_a: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with explicit full ``Q`` (used by BSOFI panels).

    ``geqrt`` factors ``A`` into compact-WY reflector blocks and
    ``gemqrt`` applies them to the identity.  The reflectors are those of
    ``geqrf``; forming ``Q`` this way is one blocked BLAS-3 sweep, where
    ``orgqr`` (behind ``scipy.linalg.qr``) rebuilds the block reflectors
    it needs: about 1 against 2.5 ms for a ``200 x 100`` panel on one
    OpenBLAS thread.  The sweep forms ``I Q^H`` column-major, which is
    ``Q`` (conjugated, for complex) row-major, so it runs in place in
    ``out`` — a C-contiguous ``m x m`` array of ``A``'s dtype — or in a
    new array.  ``overwrite_a`` lets ``geqrt`` factor a Fortran-ordered
    ``A`` in place.  ``R`` has the shape of ``A``.
    """
    m, n = A.shape
    record_flops(2.0 * n * n * (m - n / 3.0) + 4.0 / 3.0 * m**3, A.nbytes)
    geqrt, gemqrt = get_lapack_funcs(("geqrt", "gemqrt"), (A,))
    k = min(m, n)
    vr, t, info = geqrt(min(_QR_BLOCK, k), A, overwrite_a=overwrite_a)
    if info != 0:  # pragma: no cover - argument errors only
        raise ValueError(f"geqrt failed with info={info}")
    if out is None:
        out = np.empty((m, m), dtype=vr.dtype)
    elif (out.shape != (m, m) or out.dtype != vr.dtype
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous ({m}, {m}) {vr.dtype} array")
    QH = out.T
    QH.fill(0.0)
    np.fill_diagonal(QH, 1.0)
    cplx = np.iscomplexobj(vr)
    _, info = gemqrt(vr[:, :k], t, QH, side="R", trans="C" if cplx else "T",
                     overwrite_c=1)
    if info != 0:  # pragma: no cover - argument errors only
        raise ValueError(f"gemqrt failed with info={info}")
    if cplx:
        np.conjugate(out, out=out)
    return out, np.triu(vr)


def triangular_inverse(R: np.ndarray, lower: bool = False) -> np.ndarray:
    """Inverse of a triangular matrix (``n^3 / 3`` flops)."""
    n = R.shape[0]
    record_flops(n**3 / 3.0, R.nbytes)
    eye = np.eye(n, dtype=R.dtype)
    return sla.solve_triangular(R, eye, lower=lower, check_finite=False)


def triangular_solve(R: np.ndarray, B: np.ndarray, trans: bool = False) -> np.ndarray:
    """``R^{-1} B`` (``R^{-T} B`` with ``trans``) for upper-triangular
    ``R`` (``m n^2`` flops for ``m`` right-hand sides).

    Solved as ``X^T = B^T R^{-T}`` (``B^T R^{-1}``), a right-side
    ``trsm`` on the Fortran-ordered views ``R.T`` and ``B.T`` of
    C-ordered operands: no copies, and OpenBLAS's right-side kernel is
    about twice as fast as its left-side one for ``N = 100`` and ``2N``
    right-hand sides.
    """
    n = R.shape[0]
    if _is_complex(B) and not _is_complex(R):
        # A real R solves the complex B's float view: one real trsm on
        # twice the columns, and the real R is never upcast.
        return triangular_solve(R, _float_view(B), trans).view(B.dtype)
    record_flops(float(B.shape[1]) * n * n, R.nbytes + B.nbytes)
    trsm = get_blas_funcs("trsm", (R, B))
    return trsm(1.0, R.T, B.T, side=1, lower=1, trans_a=1 if trans else 0).T
