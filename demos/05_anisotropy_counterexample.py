"""The periodic lattice is stiffer across its diagonal; random lattices are not.

Directional stiffness at the identity is measured by second differences of
the homogenized density along rank-one stretches d ox d.  With the "nw" cell
diagonal the lattice resists e2 - e1 stretches twice as hard as e1 + e2
stretches, so the limit density cannot be isotropic.  A Matern hardcore
lattice at matched element count shows no such preference.
"""

import numpy as np

from polynet import (
    EnergyModel,
    PairPotential,
    PeriodicCell,
    StochasticCell,
    StochasticLatticeSpec,
    anisotropy_counterexample,
    cell_estimator,
    frame_invariance_probe,
    isotropy_probe,
    random_rotations,
)

print("Directional stiffness of the 2D periodic lattice (quadratic springs)")
for diagonal in ("nw", "ne"):
    res = anisotropy_counterexample(stiffness=1.0, f=1.0, diagonal=diagonal)
    print(f"  diagonal {diagonal}: stiffness along e2-e1 = {res.stiffness_diag:.6f}, "
          f"along e1+e2 = {res.stiffness_antidiag:.6f}, ratio {res.ratio:.6f}")

spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
xi = np.array([[1.2, 0.0], [0.0, 1.0]])

print("\nProbes on the periodic estimator (m = 10, whose density is that of every m)")
periodic = cell_estimator(PeriodicCell(m=10, dim=2), spring)
frame_dev = frame_invariance_probe(periodic, xi, random_rotations(2, 4, 5))
iso_dev = isotropy_probe(periodic, xi, random_rotations(2, 4, 5))
print(f"  frame invariance deviation W(R xi): {frame_dev:.2e}  (exact symmetry)")
print(f"  isotropy deviation W(xi R):         {iso_dev:.4f}  (lattice anisotropy)")

print("\nSame probes on a Matern lattice at matched element count, 8 realizations")
lattice = StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0,
                                r_min=0.3, R_cov=1.0, seed=0)
stochastic = cell_estimator(StochasticCell(lattice, h=0.1, dim=2), spring,
                            n_realizations=8, seed=123)
iso_dev_s = isotropy_probe(stochastic, xi, random_rotations(2, 4, 5))
print(f"  isotropy deviation:                 {iso_dev_s:.4f}")
print(f"  periodic / stochastic deviation:    {iso_dev / iso_dev_s:.1f}x")
