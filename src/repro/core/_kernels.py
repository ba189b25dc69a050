"""Instrumented dense linear-algebra kernels.

All core algorithms (CLS, BSOFI, WRP, baselines) perform their matrix
arithmetic through these wrappers so that

* flop counts flow into the active :class:`repro.perf.tracer.FlopTracer`
  (the evaluation section reports per-stage flop rates), and
* the flop-counting conventions are defined in exactly one place.

Conventions (the standard dense counts the paper uses):

* gemm ``C = A @ B`` with ``A (m, k)``, ``B (k, n)``: ``2 m k n`` flops;
* LU factorisation of ``n x n``: ``2/3 n^3``;
* triangular solve with ``m`` right-hand sides: ``m n^2`` per triangle
  (LU solve with both triangles: ``2 m n^2``);
* Householder QR of ``m x n`` (``m >= n``): ``2 n^2 (m - n/3)``;
* forming the full ``m x m`` Q: ``4/3 m^3`` (loose, adequate for rates).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from ..perf.tracer import record_flops

__all__ = [
    "gemm",
    "gemm_into",
    "batched_gemm",
    "add_identity",
    "lu_factor",
    "lu_solve",
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
    record_flops(2.0 * m * k * n, (A.nbytes + B.nbytes) + 8.0 * m * n)
    return A @ B


def gemm_into(out: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``out[:] = A @ B`` without allocating a result array.

    With a leading batch axis on ``out`` (and on ``A`` or ``B``; the
    other operand is shared) this is one counted call for the whole
    batch.  It runs one gemm per entry: ``np.matmul`` would stage a
    batch whose views share a buffer with ``out`` through a temporary.
    """
    record_flops(2.0 * out.size * A.shape[-1], A.nbytes + B.nbytes + out.nbytes)
    if out.ndim == 2:
        np.matmul(A, B, out=out)
        return out
    for i in range(out.shape[0]):
        np.matmul(A if A.ndim == 2 else A[i], B if B.ndim == 2 else B[i],
                  out=out[i])
    return out


def batched_gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Broadcasted ``A @ B`` over leading batch dimensions, counted."""
    out = np.matmul(A, B)
    m, n = out.shape[-2], out.shape[-1]
    k = A.shape[-1]
    batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
    record_flops(2.0 * batch * m * k * n, A.nbytes + B.nbytes + out.nbytes)
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
    the WRP and spectral thread teams do.
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
            x = trsm(1.0, self.lu, b[self.perm], lower=1, diag=1)
            x = trsm(1.0, self.lu, x, overwrite_b=1)
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


def lu_solve(factors: LUFactors, B: np.ndarray) -> np.ndarray:
    return factors.solve(B)


def inverse(A: np.ndarray) -> np.ndarray:
    """Explicit ``A^{-1}``: LU factorisation, then a solve against ``I``
    (two counted calls, ``2 n^3`` flops in all)."""
    return LUFactors(A).solve(np.eye(A.shape[0], dtype=A.dtype))


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


def triangular_solve(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``R^{-1} B`` for upper-triangular ``R`` (``m n^2`` flops for
    ``m`` right-hand sides).

    Solved as ``X^T = B^T R^{-T}``, a right-side ``trsm`` on the
    Fortran-ordered view ``B.T`` of a C-ordered ``B``: no copies, and
    OpenBLAS's right-side kernel is about twice as fast as its left-side
    one for ``N = 100`` and ``2N`` right-hand sides.
    """
    n = R.shape[0]
    record_flops(float(B.shape[1]) * n * n, R.nbytes + B.nbytes)
    trsm = get_blas_funcs("trsm", (R, B))
    return trsm(1.0, R, B.T, side=1, trans_a=1).T
