"""Energy minimization: a stretched cube and an affine-layer cell problem."""

import numpy as np

from polynet import (
    BoundaryCondition,
    CellProblem,
    ChainParams,
    EnergyModel,
    PairPotential,
    PeriodicCell,
    StochasticCell,
    StochasticLatticeSpec,
    VolumetricParams,
    affine_positions,
    minimize,
    periodic_mesh_3d,
    solve_cell_problem,
    total_energy,
)

model = EnergyModel(
    pair=PairPotential.langevin_chain(ChainParams(n=8.0)),
    f=1.0,
    vol=VolumetricParams(K=1.0, eta=0.1),
)

print("Uniaxial stretch of the unit cube, faces pinned, interior relaxing")
mesh = periodic_mesh_3d(2)
xi = np.diag([1.3, 1.0, 1.0])
bc = BoundaryCondition(kind="dirichlet-face-free-traction", xi=xi,
                       faces=("x-", "x+"))
affine_energy = total_energy(mesh, affine_positions(mesh, xi), model)
result = minimize(mesh, model, bc)
print(f"  affine energy   {affine_energy:.8f}")
print(f"  relaxed energy  {result.value:.8f}")
print(f"  status={result.status} after {result.iterations} iterations, "
      f"|grad| = {result.grad_norm:.2e}")

print("\nCell problem: affine data xi*x pinned on a boundary layer of depth 2h")
problem = CellProblem(
    xi=np.diag([1.2, 0.9, 1.0]),
    source=PeriodicCell(m=5, dim=3),
    model=model,
)
solution = solve_cell_problem(problem)
print(f"  energy density {solution.value:.8f} at h = {problem.source.h:.4f} "
      f"({solution.n_free} free vertices)")
print(f"  status={solution.status}, iterations={solution.iterations}")
print("  (on the periodic lattice the affine state is a critical point by")
print("   symmetry, so the solver accepts the initial iterate)")

print("\nThe same cell problem on a random Delaunay mesh needs real descent")
lattice = StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0,
                                r_min=0.3, R_cov=1.0, seed=12)
stochastic = CellProblem(
    xi=np.diag([1.2, 0.9]),
    source=StochasticCell(lattice=lattice, h=0.1, dim=2),
    model=EnergyModel(pair=PairPotential.langevin_chain(ChainParams(n=8.0))),
)
sol = solve_cell_problem(stochastic)
print(f"  energy density {sol.value:.8f} at h = 0.1 ({sol.n_free} free vertices)")
print(f"  status={sol.status}, iterations={sol.iterations}, "
      f"|grad| = {sol.grad_norm:.2e}")
