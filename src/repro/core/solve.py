"""Structured linear solves with block p-cyclic matrices.

BSOFI's structured QR factorisation is also the right tool for solving
``M x = rhs`` *without* forming any part of the inverse: apply the
``2N x 2N`` panel reflections to the right-hand side and back-
substitute through the bidiagonal-plus-last-column ``R``.  Cost per
solve after factorisation: ``O(L N^2)`` per right-hand side — versus
``O((NL)^2)`` for a dense factor.

This is the natural companion API to selected inversion: applications
that only need ``G @ v`` for a few vectors (e.g. the Hutchinson trace
estimators of :mod:`repro.apps.trace`) should solve rather than invert.

:class:`PCyclicSolver` factors once and solves many times; the module
also provides :func:`determinant` — the sign/log-magnitude of
``det(M)``, which for DQMC is the Boltzmann weight of a configuration
(``det M = det(I + B_L ... B_1)``).
"""

from __future__ import annotations

import numpy as np

from . import _kernels as kr
from .bsofi import StructuredQR, bsofi_qr
from .pcyclic import BlockPCyclic

__all__ = ["PCyclicSolver", "determinant"]


class PCyclicSolver:
    """Factor-once / solve-many interface for ``M x = rhs``.

    Parameters
    ----------
    pc:
        The block p-cyclic matrix.  Factorisation costs ``O(L N^3)``
        (structured QR; never forms the ``(NL)^2`` matrix).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.pcyclic import random_pcyclic
    >>> from repro.core.solve import PCyclicSolver
    >>> pc = random_pcyclic(6, 4, np.random.default_rng(0), scale=0.6)
    >>> solver = PCyclicSolver(pc)
    >>> rhs = np.ones(24)
    >>> x = solver.solve(rhs)
    >>> bool(np.allclose(pc.matvec(x), rhs))
    True
    """

    def __init__(self, pc: BlockPCyclic):
        self.pc = pc
        self.L = pc.L
        self.N = pc.N
        if pc.L == 1:
            A = np.array(pc.block(1), copy=True)
            kr.add_identity(A)
            self._single = kr.lu_factor(A)
            self._qr: StructuredQR | None = None
        else:
            self._single = None
            self._qr = bsofi_qr(pc)

    # ------------------------------------------------------------------
    def _apply_qt(self, y: np.ndarray) -> np.ndarray:
        """``y <- Q^T y`` blockwise (y has shape ``(L, N, k)``)."""
        f = self._qr
        assert f is not None
        n, N = f.b, f.N
        for i in range(n - 1):
            stacked = np.concatenate((y[i], y[i + 1]), axis=0)  # (2N, k)
            stacked = kr.gemm(f.Q[i].conj().T, stacked)
            y[i] = stacked[:N]
            y[i + 1] = stacked[N:]
        y[n - 1] = kr.gemm(f.Qf.conj().T, y[n - 1])
        return y

    def _back_substitute(self, y: np.ndarray) -> np.ndarray:
        """Solve ``R x = y`` blockwise in place (y shape ``(L, N, k)``)."""
        f = self._qr
        assert f is not None
        n = f.b
        x = y
        x[n - 1] = kr.triangular_solve(f.r_diag(n - 1), y[n - 1])
        for i in range(n - 2, -1, -1):
            acc = y[i] - kr.gemm(f.r_upper(i), x[i + 1])
            if i < n - 2:
                acc -= kr.gemm(f.Rc[i], x[n - 1])
            x[i] = kr.triangular_solve(f.Rd[i], acc)
        return x

    def _forward_substitute_t(self, y: np.ndarray) -> np.ndarray:
        """Solve ``R^T z = y`` blockwise in place (y shape ``(L, N, k)``).

        ``R^T`` is block lower triangular: ``Rd^T`` on the diagonal,
        ``Ru^T`` below it and the ``Rc^T`` fill along the last block row.
        """
        f = self._qr
        assert f is not None
        n = f.b
        z = y
        for i in range(n):
            acc = y[i]
            if i > 0:
                acc = acc - kr.gemm(f.r_upper(i - 1).T, z[i - 1])
            if i == n - 1:
                for j in range(n - 2):
                    acc -= kr.gemm(f.Rc[j].T, z[j])
            z[i] = kr.triangular_solve(f.r_diag(i), acc, trans=True)
        return z

    def _apply_qbar(self, z: np.ndarray) -> np.ndarray:
        """``z <- conj(Q) z`` blockwise, the inverse of ``Q^T``."""
        f = self._qr
        assert f is not None
        n, N = f.b, f.N
        z[n - 1] = kr.gemm(f.Qf.conj(), z[n - 1])
        for i in range(n - 2, -1, -1):
            stacked = np.concatenate((z[i], z[i + 1]), axis=0)  # (2N, k)
            stacked = kr.gemm(f.Q[i].conj(), stacked)
            z[i] = stacked[:N]
            z[i + 1] = stacked[N:]
        return z

    def _rhs_blocks(self, rhs: np.ndarray) -> np.ndarray:
        """A private ``(L, N, k)`` copy of ``rhs`` in the solve dtype."""
        rhs = np.asarray(rhs)
        if not np.issubdtype(rhs.dtype, np.inexact):
            rhs = rhs.astype(float)
        if rhs.shape[0] != self.N * self.L:
            raise ValueError(
                f"rhs leading dimension {rhs.shape[0]} != N*L = {self.N * self.L}"
            )
        dtype = np.result_type(rhs.dtype, self.pc.dtype)
        return rhs.reshape(self.L, self.N, -1).astype(dtype, copy=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``M x = rhs`` for one vector or a block of vectors.

        ``rhs`` has shape ``(N*L,)`` or ``(N*L, k)``; the result matches.
        """
        y = self._rhs_blocks(rhs)
        if self._single is not None:
            return self._single.solve(y[0]).reshape(np.shape(rhs))
        self._apply_qt(y)
        self._back_substitute(y)
        return y.reshape(np.shape(rhs))

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``M^T y = rhs`` (plain transpose) from the same factors.

        ``M^T = R^T Q^T``: forward-substitute ``R^T z = rhs``, then
        ``y = conj(Q) z`` — no second factorisation.  Shapes as in
        :meth:`solve`.
        """
        y = self._rhs_blocks(rhs)
        if self._single is not None:
            return self._single.solve(y[0], trans=1).reshape(np.shape(rhs))
        self._forward_substitute_t(y)
        self._apply_qbar(y)
        return y.reshape(np.shape(rhs))

    # ------------------------------------------------------------------
    def slogdet(self) -> tuple[float | complex, float]:
        """Sign/phase and log|det(M)| from the structured factors.

        ``det(M) = det(Q) * det(R)``; each panel ``Q_i`` contributes a
        unit-modulus determinant (+-1 real; a phase for complex
        matrices), ``R`` the product of its diagonal entries.  The
        first return value is a real sign for real matrices and a
        unit-modulus complex phase for complex ones.
        """

        def unit(x) -> complex:
            return x / abs(x)

        if self._single is not None:
            lu = self._single.lu
            piv = self._single.piv
            diag = np.diag(lu)
            sign = np.prod([unit(d) for d in diag])
            # Each row interchange flips the sign.
            sign *= -1.0 if (piv != np.arange(len(piv))).sum() % 2 else 1.0
            logabs = float(np.sum(np.log(np.abs(diag))))
        else:
            f = self._qr
            assert f is not None
            sign = complex(1.0)
            for i in range(f.b - 1):
                sign *= unit(np.linalg.det(f.Q[i]))
            sign *= unit(np.linalg.det(f.Qf))
            logabs = 0.0
            for i in range(f.b):
                d = np.diag(f.r_diag(i))
                sign *= np.prod([unit(x) for x in d])
                logabs += float(np.sum(np.log(np.abs(d))))
        if abs(complex(sign).imag) < 1e-12:
            return float(complex(sign).real), logabs
        return complex(sign), logabs


def determinant(pc: BlockPCyclic) -> tuple[float | complex, float]:
    """``(sign-or-phase, log|det M|)`` of a block p-cyclic matrix.

    In DQMC this is the configuration weight: ``det M_sigma(h)``.
    Prefer this over densifying — it never forms the ``(NL)^2`` matrix.
    """
    return PCyclicSolver(pc).slogdet()
