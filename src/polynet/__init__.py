"""Spring-network elasticity on simplicial meshes and its homogenization."""

from .chains import (
    ChainParams,
    GrowthBounds,
    GrowthReport,
    PairPotential,
    check_growth_condition,
    inv_langevin_series,
)
from .volumetric import (
    VolumetricParams,
    w_vol,
    w_vol_eta_j,
    w_vol_gradient,
)
from .meshing import (
    AdmissibilityReport,
    DegenerateGeometryError,
    InfeasibleLatticeError,
    Mesh,
    StochasticLatticeSpec,
    boundary_layer,
    build_stochastic_mesh,
    check_admissibility,
    delaunay_triangulate,
    element_gradient,
    periodic_mesh_2d,
    periodic_mesh_3d,
    read_mesh,
    rescale_and_clip,
    stochastic_lattice,
    write_mesh,
)
from .assembly import (
    BoundaryCondition,
    CoincidentVerticesError,
    EnergyModel,
    FullyConstrainedError,
    InvertedElementError,
    affine_positions,
    apply_bc,
    energy_and_gradient,
    energy_gradient,
    total_energy,
)
from .optim import (
    MinimizeResult,
    MinimizeSettings,
    OptimizationError,
    lbfgs,
    minimize,
)
from .homogenize import (
    CellProblem,
    CounterexampleResult,
    HomogEstimate,
    PeriodicCell,
    StochasticCell,
    anisotropy_counterexample,
    cell_estimator,
    estimate_whom,
    frame_invariance_probe,
    isotropy_probe,
    periodic_density,
    random_rotations,
    rank_one_convexity_sample,
    solve_cell_problem,
    sweep,
)

__version__ = "0.1.0"
