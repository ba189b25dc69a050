"""Time-dependent spin correlations from selected block rows and columns.

The paper's Sec. IV example: the SPXX measurement needs entries of
``G_kl`` *and* ``G_lk`` simultaneously, so the selected inversion must
produce block rows and block columns.  This example does that by hand —
one CLS+BSOFI per spin, then three wraps reusing the same seed grid —
and assembles the ``L x d_max`` SPXX matrix, showing how the
correlation decays in imaginary time and space.

It also demonstrates the temperature dependence: cooling the system
(raising beta) strengthens the spin correlations.

Run: ``python examples/spin_correlations.py``
"""

import numpy as np

from repro import HubbardModel, HSField, Pattern, RectangularLattice, Selection, fsi, wrap
from repro.dqmc.spxx import spxx

LATTICE = RectangularLattice(4, 4)
L, C, Q = 16, 4, 1


def spxx_for_beta(beta: float, seed: int = 3):
    model = HubbardModel(LATTICE, L=L, t=1.0, U=4.0, beta=beta)
    field = HSField.random(L, model.N, np.random.default_rng(seed))
    bundles = {}
    for sigma in (+1, -1):
        pc = model.build_matrix(field, sigma)
        # One expensive CLS+BSOFI ...
        res = fsi(pc, C, pattern=Pattern.ROWS, q=Q, num_threads=1)
        # ... then extra patterns wrapped from the same seeds for free-ish.
        cols = wrap(
            pc,
            res.seeds,
            Selection(Pattern.COLUMNS, L=L, c=C, q=Q),
            num_threads=1,
        )
        bundles[sigma] = (res.selected, cols)
    return (
        spxx(
            bundles[+1][0],
            bundles[+1][1],
            bundles[-1][0],
            bundles[-1][1],
            LATTICE,
        ),
        model,
    )


result, model = spxx_for_beta(beta=2.0)
radii = LATTICE.distance_classes[1]

print(f"SPXX matrix: {result.values.shape} (tau x distance classes)")
print(f"contributing block pairs per tau: C(tau) = {result.c_tau[0]}\n")

print("SPXX(tau, d) for the first distance classes (beta = 2):")
header = "tau\\r " + "  ".join(f"{r:6.2f}" for r in radii[:5])
print(header)
for tau in range(0, L, 4):
    row = "  ".join(f"{result.values[tau, d]:+.3f}" for d in range(5))
    print(f"{tau:4d}  {row}")

# Imaginary-time decay: the on-site correlation is maximal at tau = 0.
onsite = result.values[:, 0]
print(f"\non-site SPXX: tau=0 -> {onsite[0]:+.4f},"
      f" tau=L/2 -> {onsite[L // 2]:+.4f} (decays into the bulk)")
assert onsite[0] > abs(onsite[L // 2])

# Temperature dependence of the equal-tau structure factor.
print("\nequal-tau SPXX structure factor vs temperature:")
for beta in (1.0, 2.0, 4.0):
    r, _ = spxx_for_beta(beta)
    sf = float(r.structure_factor()[0])
    print(f"  beta = {beta:3.1f}: sum_d SPXX(0, d) = {sf:+.4f}")
print("\n(single HS configuration — a production run averages over the"
      " Markov chain as in examples/dqmc_hubbard.py)")
