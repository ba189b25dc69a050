"""Hubbard matrix assembly.

Sec. V-A defines the blocks of the DQMC Hubbard matrix as

    ``B_l = e^{t dtau K} e^{sigma nu V_l(h)}``

where ``K`` is the lattice adjacency matrix, ``dtau = beta / L``,
``sigma in {+1, -1}`` is the electron spin direction,
``nu = arccosh(e^{dtau U / 2})`` couples the HS field to the potential,
and ``V_l(h) = diag(h(l, 1), ..., h(l, N))``.

The Green's function for spin ``sigma`` is the inverse of the block
p-cyclic matrix ``M_sigma(h)`` built from these blocks
(:class:`repro.core.pcyclic.BlockPCyclic`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pcyclic import BlockPCyclic
from .hs_field import HSField
from .kinetic import KineticPropagator
from .lattice import RectangularLattice

__all__ = ["HubbardModel", "SliceInverses", "hs_coupling", "build_hubbard_matrix"]


def hs_coupling(U: float, dtau: float) -> float:
    """The HS coupling ``nu`` with ``cosh(nu) = exp(dtau * |U| / 2)``.

    For repulsive ``U`` the field decouples the *spin* channel
    (``e^{sigma nu h}``, opposite sign per spin); for attractive ``U``
    the *charge* channel (``e^{nu h}`` for both spins, plus a bare
    ``e^{-nu h}`` weight factor) — see
    :attr:`HubbardModel.is_attractive`.
    """
    x = np.exp(dtau * abs(U) / 2.0)
    return float(np.arccosh(x))


@dataclass(frozen=True)
class HubbardModel:
    """Static parameters of a Hubbard-model DQMC simulation.

    Parameters
    ----------
    lattice:
        The spatial lattice (defines ``N`` and ``K``).
    L:
        Number of imaginary-time slices.
    t:
        Hopping amplitude.
    U:
        On-site interaction.  ``U > 0`` is the repulsive model (the
        paper's case; spin-channel HS decoupling).  ``U < 0`` is the
        *attractive* model: the HS field couples to the charge,
        ``B_l`` is identical for both spins, and the configuration
        weight ``e^{-nu sum h} det M(h)^2`` is non-negative — no sign
        problem at any filling (the standard s-wave superconductivity
        workload).  Both use the particle-hole symmetric interaction
        ``U (n_up - 1/2)(n_dn - 1/2)``, so ``mu = 0`` is half filling
        either way.
    beta:
        Inverse temperature; ``dtau = beta / L``.
    mu:
        Chemical potential.  A scalar enters as a constant factor
        ``e^{dtau mu}`` on each block (particle-hole symmetric point is
        ``mu = 0``, used throughout the paper).  An array of length
        ``N`` gives a *site-dependent* potential ``mu_i`` — the
        disordered Hubbard model (cf. the paper's ref. [3], disorder
        effects in high-T_c superconductors); the factor becomes the
        diagonal ``e^{dtau mu_i}``.
    """

    lattice: RectangularLattice
    L: int
    t: float = 1.0
    U: float = 2.0
    beta: float = 1.0
    mu: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        mu = self.mu
        if np.ndim(mu) != 0:
            mu = np.ascontiguousarray(np.asarray(mu, dtype=float))
            if mu.shape != (self.lattice.nsites,):
                raise ValueError(
                    f"site-dependent mu must have shape"
                    f" ({self.lattice.nsites},), got {mu.shape!r}"
                )
            object.__setattr__(self, "mu", mu)

    @property
    def N(self) -> int:
        return self.lattice.nsites

    @property
    def dtau(self) -> float:
        return self.beta / self.L

    @property
    def nu(self) -> float:
        """HS coupling ``arccosh(e^{dtau |U| / 2})``."""
        return hs_coupling(self.U, self.dtau)

    @property
    def is_attractive(self) -> bool:
        """Charge-channel (negative-``U``) decoupling?"""
        return self.U < 0

    def spin_factor(self, sigma: int) -> int:
        """How the HS field enters ``B_l^sigma``: ``sigma`` for the
        repulsive spin channel, ``+1`` for the attractive charge channel
        (both spins see the same field)."""
        if sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {sigma}")
        return 1 if self.is_attractive else sigma

    @property
    def kinetic(self) -> KineticPropagator:
        """Cached kinetic propagator ``e^{t dtau K}``."""
        if not hasattr(self, "_kin"):
            object.__setattr__(
                self,
                "_kin",
                KineticPropagator(self.lattice.adjacency, self.t, self.dtau),
            )
        return self._kin  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _potential(self, h: np.ndarray, sigma: int) -> np.ndarray:
        """Exponent ``s nu h + dtau mu`` of the diagonal potential factor
        of ``B_l``, for a field slice ``(N,)`` or a whole field ``(L, N)``."""
        s = self.spin_factor(sigma)
        return s * self.nu * np.asarray(h).astype(np.float64) + self.dtau * self.mu

    def slice_matrix(self, h_slice: np.ndarray, sigma: int) -> np.ndarray:
        """One block ``B_l = e^{t dtau K} e^{sigma nu V_l} e^{dtau mu}``.

        ``h_slice`` is the HS field on slice ``l`` (shape ``(N,)``).
        The potential factor is diagonal, so it is applied as a column
        scaling of the kinetic factor (no gemm needed).
        """
        h_slice = np.asarray(h_slice)
        if h_slice.shape != (self.N,):
            raise ValueError(
                f"h_slice must have shape ({self.N},), got {h_slice.shape!r}"
            )
        return self.kinetic.forward * np.exp(self._potential(h_slice, sigma))[None, :]

    def slice_matrix_inv(self, h_slice: np.ndarray, sigma: int) -> np.ndarray:
        """Exact inverse of :meth:`slice_matrix` (:class:`SliceInverses`)."""
        exponent = self._potential(h_slice, sigma)
        return SliceInverses(self.kinetic, np.exp(-exponent)[None, :])(1)

    def build_matrix(self, field: HSField, sigma: int = +1) -> BlockPCyclic:
        """Assemble the block p-cyclic Hubbard matrix ``M_sigma(h)``.

        All ``L`` blocks come from one broadcast column scaling of the
        kinetic factor (bitwise equal to :meth:`slice_matrix` per
        slice); the matrix carries its exact block inverses.
        """
        if field.L != self.L or field.N != self.N:
            raise ValueError(
                f"field shape ({field.L}, {field.N}) does not match model"
                f" ({self.L}, {self.N})"
            )
        exponent = self._potential(field.h, sigma)
        B = self.kinetic.forward * np.exp(exponent)[:, None, :]
        return BlockPCyclic(
            B, inverses=SliceInverses(self.kinetic, np.exp(-exponent))
        )


@dataclass(frozen=True, eq=False)
class SliceInverses:
    """The exact block inverses of a Hubbard matrix, one at a time.

    ``B_l^{-1} = e^{-sigma nu V_l} e^{-dtau mu} e^{-t dtau K}``: a row
    scaling of the cached ``e^{-t dtau K}``, ``O(N^2)`` and free of any
    factorisation.  ``scale[l - 1]`` holds the diagonal
    ``e^{-(sigma nu h(l) + dtau mu)}``.  Instances are the ``inverses``
    provider of the :class:`~repro.core.pcyclic.BlockPCyclic` that
    :meth:`HubbardModel.build_matrix` returns, so they pickle with it.
    """

    kinetic: KineticPropagator
    scale: np.ndarray

    def __call__(self, l: int) -> np.ndarray:
        """``B_l^{-1}`` for a 1-based ``l``, as a new array."""
        return self.scale[l - 1][:, None] * self.kinetic.backward


def build_hubbard_matrix(
    nx: int,
    ny: int,
    L: int,
    *,
    t: float = 1.0,
    U: float = 2.0,
    beta: float = 1.0,
    mu: float = 0.0,
    sigma: int = +1,
    rng: np.random.Generator | int | None = None,
    field: HSField | None = None,
) -> tuple[BlockPCyclic, HubbardModel, HSField]:
    """Convenience builder: lattice + random HS field + matrix in one call.

    Returns ``(M, model, field)`` so callers can reuse the model and the
    field (e.g. to build the opposite-spin matrix with ``sigma=-1``).
    """
    model = HubbardModel(RectangularLattice(nx, ny), L=L, t=t, U=U, beta=beta, mu=mu)
    if field is None:
        field = HSField.random(L, model.N, np.random.default_rng(rng))
    return model.build_matrix(field, sigma), model, field
