"""Frequency-domain Green's functions: the DOS of a Hubbard chain.

The equal-time Green's function answers "who overlaps with whom"; the
*resolvent* ``G(omega + i eta) = (zI - M)^{-1}`` answers "at which
energies".  This example

1. builds the p-cyclic DQMC matrix of a small Hubbard lattice for one
   Hubbard-Stratonovich field configuration;
2. factors it **once** (:class:`repro.spectral.ResolventFactor`) and
   sweeps a 97-point frequency grid — the omega-independent CLS stage
   and the block inverses are shared by every shift, which is
   what makes dense grids affordable (see ``benchmarks/
   bench_spectral.py`` for the measured speedup gate);
3. prints the density of states ``rho(omega) = tr A(omega) / (N L)``
   averaged over all time-diagonal blocks as an ASCII profile, plus the
   momentum-resolved ``A(q, omega)`` peak positions;
4. self-checks the answer against the dense resolvent oracle at three
   shifts.

Run: ``python examples/spectral_function.py`` (~10 s serial)
"""

import numpy as np

from repro import HubbardModel, RectangularLattice
from repro.bench.ascii_chart import sparkline
from repro.core.patterns import Pattern
from repro.hubbard.hs_field import HSField
from repro.spectral import (
    OmegaGrid,
    ResolventFactor,
    density_of_states,
    momentum_spectral_function,
    spectral_function,
)


def main() -> None:
    lattice = RectangularLattice(4, 4)
    model = HubbardModel(lattice, L=8, t=1.0, U=4.0, beta=2.0)
    field = HSField.random(model.L, lattice.nsites, np.random.default_rng(11))
    pc = model.build_matrix(field, +1)
    N, L = pc.N, pc.L

    grid = OmegaGrid.linear(-6.0, 6.0, 97, 0.25)
    factor = ResolventFactor(pc, c=4, pattern=Pattern.FULL_DIAGONAL)
    swept = factor.sweep(grid)
    assert swept.rungs == ["factored"] * grid.n

    # DOS averaged over every time slice: rho(w) = sum_k tr A_kk / (N L).
    rho = np.zeros(grid.n)
    for k in range(1, L + 1):
        rho += density_of_states(spectral_function(swept.block(k, k)))
    rho /= L

    print(f"Hubbard {lattice.nx}x{lattice.ny}, L={L}, U={model.U},"
          f" beta={model.beta}: DOS over {grid.n} frequencies")
    print(f"  omega in [{grid.omegas[0]:+.1f}, {grid.omegas[-1]:+.1f}],"
          f" eta={grid.etas[0]:g}")
    print(f"  rho: {sparkline(rho)}")
    peak = grid.omegas[int(np.argmax(rho))]
    mass = np.trapezoid(rho, grid.omegas)
    print(f"  peak at omega={peak:+.2f}, grid mass {mass:.3f}"
          " (spectral weight near the real axis)")

    # Momentum-resolved A(q, omega) of one time slice: where the
    # spectral weight sits in the Brillouin zone.
    A1 = spectral_function(swept.block(1, 1))
    momenta, Aq = momentum_spectral_function(A1, lattice)
    print("  A(q, omega) band peaks (one time slice):")
    for qi in (0, 5, 10, 15):
        qx, qy = momenta[qi]
        j = int(np.argmax(Aq[:, qi]))
        print(f"    q=({qx:4.2f},{qy:4.2f})  peak omega={grid.omegas[j]:+5.2f}"
              f"  {sparkline(Aq[:, qi])}")

    # -- self-checks ---------------------------------------------------
    # The DQMC matrix is NOT Hermitian: its eigenvalues live on circles
    # around 1 in the complex plane, so a Lorentzian of width eta on the
    # real line only weighs the spectrum within ~eta of the axis — the
    # grid mass is well below one state per orbital.  The hard
    # correctness check is the dense resolvent oracle below.
    assert 0.01 < mass < 1.3, mass
    dense = pc.to_dense()
    eye = np.eye(dense.shape[0])
    worst = 0.0
    for j in (0, grid.n // 2, grid.n - 1):
        ref = np.linalg.inv(grid.z[j] * eye - dense)
        scale = np.abs(ref).max()
        for k in range(1, L + 1):
            refb = ref[(k - 1) * N:k * N, (k - 1) * N:k * N]
            worst = max(worst,
                        np.abs(swept.block(k, k)[j] - refb).max() / scale)
    print(f"  dense-oracle check over 3 shifts: max err {worst:.2e}")
    assert worst < 1e-10, worst


if __name__ == "__main__":
    main()
