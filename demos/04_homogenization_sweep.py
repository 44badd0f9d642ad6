"""Homogenized-density estimates: refinement sweeps and realization averages."""

import numpy as np

from polynet import (
    CellProblem,
    EnergyModel,
    PairPotential,
    PeriodicCell,
    StochasticCell,
    StochasticLatticeSpec,
    estimate_whom,
    periodic_density,
    solve_cell_problem,
)

spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
xi = np.array([[1.1, 0.0], [0.0, 0.9]])

print("Periodic 2D lattice, quadratic springs: cell problems vs the closed form")
for m in (2, 4, 8, 16):
    cell = PeriodicCell(m=m)
    sol = solve_cell_problem(CellProblem(xi=xi, source=cell, model=spring))
    print(f"  m = {m:2d}, h = {cell.h:.5f}: density {sol.value:.12f}")
print(f"  periodic_density (affine energy of one cell): {periodic_density(xi, spring):.12f}")
print("  (the affine state is critical at every m, so every cell problem has the")
print("   one-cell value; a sweep with one restart reads it without a mesh)")
est = estimate_whom(xi, [2, 4, 8, 16], spring, PeriodicCell(m=0, dim=2))
print(f"  sweep over m = 2, 4, 8, 16: cauchy gaps {est.cauchy_gaps}")

print("\nStochastic lattice (Matern hardcore), averaged over realizations")
lattice = StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0,
                                r_min=0.3, R_cov=1.0, seed=0)
source = StochasticCell(lattice=lattice, h=1.0, dim=2)
est_s = estimate_whom(xi, [0.25, 0.15, 0.1], spring, source,
                      n_realizations=8, seed=42)
for scale in est_s.per_h:
    print(f"  h = {scale.h:.3f}: mean {scale.value:.6f} +- {scale.stderr:.6f} "
          f"over {scale.n} realizations")
print(f"  cauchy gaps: {[f'{g:.4f}' for g in est_s.cauchy_gaps]}")
print(f"  finest-scale value: {est_s.extrapolated:.6f}")
