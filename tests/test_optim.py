import warnings

import numpy as np
import pytest
from scipy.optimize import line_search

from helpers import spring_oracle
from polynet import optim
from polynet.assembly import (
    VOLUME_WEIGHTS,
    BoundaryCondition,
    CoincidentVerticesError,
    EnergyModel,
    FullyConstrainedError,
    InvertedElementError,
    affine_positions,
    apply_bc,
    edge_stiffness_laplacian,
    energy_gradient,
    total_energy,
)
from polynet.chains import PairPotential
from polynet.homogenize import (
    CellProblem,
    StochasticCell,
    build_cell_mesh,
    default_layer_depth,
    solve_cell_problem,
)
from polynet.meshing import (
    Mesh,
    StochasticLatticeSpec,
    build_stochastic_mesh,
    element_gradient,
    periodic_mesh_2d,
    periodic_mesh_3d,
)
from polynet.optim import (
    MinimizeSettings,
    OptimizationError,
    lbfgs,
    minimize,
)
from polynet.volumetric import VolumetricParams

SPRING = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
CHAIN = EnergyModel(pair=PairPotential.langevin_chain())


def test_affine_init_basics():
    mesh = periodic_mesh_3d(2)
    np.testing.assert_array_equal(affine_positions(mesh, np.eye(3)), mesh.vertices)
    np.testing.assert_allclose(
        affine_positions(mesh, 2.0 * np.eye(3)), 2.0 * mesh.vertices
    )
    xi = np.array([[1.1, 0.2, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]])
    state = affine_positions(mesh, xi)
    for e in (0, 11, 40):
        np.testing.assert_allclose(element_gradient(mesh, e, state), xi, atol=1e-12)


def test_lbfgs_solves_strictly_convex_quadratic():
    rng = np.random.default_rng(0)
    n = 24
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    c = rng.standard_normal(n)

    x_star = np.linalg.solve(q, -c)
    x, f, gnorm, iters, converged = lbfgs(
        lambda x: 0.5 * x @ q @ x + c @ x,
        lambda x: q @ x + c,
        rng.standard_normal(n),
        MinimizeSettings(grad_tol=1e-10, max_iters=500),
    )
    assert converged
    assert np.linalg.norm(x - x_star) <= 1e-8 * (1.0 + np.linalg.norm(x_star))


def test_lbfgs_honest_nonconvergence_flag():
    rng = np.random.default_rng(1)
    n = 40
    a = rng.standard_normal((n, n))
    q = a @ a.T + 0.1 * np.eye(n)
    x, f, gnorm, iters, converged = lbfgs(
        lambda x: 0.5 * x @ q @ x,
        lambda x: q @ x,
        rng.standard_normal(n),
        MinimizeSettings(grad_tol=1e-14, max_iters=1),
    )
    assert iters == 1
    assert not converged
    assert gnorm > 1e-14


def test_lbfgs_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        lbfgs(lambda x: float("nan"), lambda x: x, np.zeros(3))


def test_affine_state_is_critical_on_periodic_lattice():
    # lattice symmetry makes the affine state a critical point, so the solver
    # accepts the init without iterating
    mesh = periodic_mesh_2d(4)
    bc = BoundaryCondition(kind="affine-layer", xi=np.eye(2), depth=2.0 * mesh.h)
    result = minimize(mesh, SPRING, bc)
    assert result.converged
    assert result.iterations == 0
    assert result.energy == 3.0


def test_minimize_matches_direct_linear_solve():
    # quadratic springs give a linear gradient; eliminate it exactly
    mesh = periodic_mesh_2d(3)
    xi = np.diag([1.3, 1.0])
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction", xi=xi, faces=("x-", "x+")
    )
    mask, targets = apply_bc(mesh, bc)
    state0 = affine_positions(mesh, xi)
    state0[mask] = targets[mask]
    free = ~mask

    def grad_free(x):
        s = state0.copy()
        s[free] = x.reshape(-1, 2)
        return energy_gradient(mesh, s, SPRING)[free].ravel()

    # the quadratic-spring gradient is linear in the positions: probe the
    # matrix around the affine base and eliminate exactly
    base = state0[free].ravel()
    g_base = grad_free(base)
    nfree = base.size
    amat = np.zeros((nfree, nfree))
    for j in range(nfree):
        e = np.zeros(nfree)
        e[j] = 1.0
        amat[:, j] = grad_free(base + e) - g_base
    x_star = base + np.linalg.solve(amat, -g_base)

    result = minimize(mesh, SPRING, bc, settings=MinimizeSettings(grad_tol=1e-10))
    assert result.converged
    np.testing.assert_allclose(result.state[free].ravel(), x_star, atol=1e-8)


def test_minimize_honest_max_iters_flag():
    mesh = periodic_mesh_3d(2)
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction",
        xi=np.diag([1.5, 1.0, 1.0]),
        faces=("x-", "x+"),
    )
    result = minimize(mesh, CHAIN, bc, settings=MinimizeSettings(max_iters=1))
    assert result.iterations == 1
    assert not result.converged


def test_minimize_is_deterministic():
    mesh = periodic_mesh_3d(2)
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction",
        xi=np.diag([1.2, 1.0, 1.0]),
        faces=("x-", "x+"),
    )
    r1 = minimize(mesh, CHAIN, bc)
    r2 = minimize(mesh, CHAIN, bc)
    assert r1.energy == r2.energy
    np.testing.assert_array_equal(r1.state, r2.state)


def test_minimize_decreases_energy_from_init():
    mesh = periodic_mesh_3d(2)
    xi = np.diag([1.4, 1.0, 1.0])
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction", xi=xi, faces=("x-", "x+")
    )
    from polynet.assembly import total_energy

    init = affine_positions(mesh, xi)
    result = minimize(mesh, SPRING, bc)
    assert result.converged
    assert result.energy < total_energy(mesh, init, SPRING)
    assert result.grad_norm <= 1e-8 * (1 + abs(result.energy))


def test_minimize_rejects_fully_pinned_and_bad_init():
    mesh = periodic_mesh_3d(2)
    with pytest.raises(FullyConstrainedError):
        minimize(mesh, SPRING,
                 BoundaryCondition(kind="affine-layer", xi=np.eye(3), depth=0.5))
    bc = BoundaryCondition(kind="affine-layer", xi=np.eye(3), depth=2.0 * mesh.h)
    bad_init = mesh.vertices.copy()
    bad_init[13] = np.nan
    with pytest.raises(ValueError):
        minimize(mesh, SPRING, bc, init=bad_init)
    with pytest.raises(ValueError):
        minimize(mesh, SPRING, bc, init=np.zeros((3, 3)))


def test_settings_validation():
    with pytest.raises(ValueError):
        MinimizeSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        MinimizeSettings(max_iters=0)
    with pytest.raises(ValueError):
        MinimizeSettings(memory=0)
    with pytest.raises(ValueError):
        MinimizeSettings(armijo_c1=0.5, wolfe_c2=0.4)


def test_line_search_failure_raises():
    # inconsistent gradient: every claimed descent direction increases f, so
    # neither the Wolfe search nor the steepest-descent fallback can decrease
    # the energy and the solver must raise instead of looping
    def fun(x):
        return float(x[0])

    def grad(x):
        return np.array([-1.0, 0.0])

    with pytest.raises(OptimizationError):
        lbfgs(fun, grad, np.zeros(2), MinimizeSettings(grad_tol=1e-12, max_iters=10))


def test_line_search_failure_lets_no_warning_escape():
    # the inconsistent gradient of test_line_search_failure_raises: scipy's
    # Wolfe search warns about it, and lbfgs silences exactly that warning
    def fun(x):
        return float(x[0])

    def grad(x):
        return np.array([-1.0, 0.0])

    x0 = np.zeros(2)
    with pytest.warns(RuntimeWarning, match="^The line search algorithm"):
        line_search(fun, grad, x0, -grad(x0), gfk=grad(x0), old_fval=fun(x0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OptimizationError):
            lbfgs(fun, grad, x0, MinimizeSettings(grad_tol=1e-12, max_iters=10))


def test_lbfgs_exact_inverse_hessian_converges_in_one_iteration():
    rng = np.random.default_rng(2)
    n = 24
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    c = rng.standard_normal(n)
    x, f, gnorm, iters, converged = lbfgs(
        lambda x: 0.5 * x @ q @ x + c @ x,
        lambda x: q @ x + c,
        rng.standard_normal(n),
        MinimizeSettings(grad_tol=1e-9),
        precondition=lambda v: np.linalg.solve(q, v),
    )
    assert converged
    assert iters == 1
    np.testing.assert_allclose(x, np.linalg.solve(q, -c), rtol=1e-10, atol=1e-12)


def _refuse_factorization(*args, **kwargs):
    raise AssertionError("splu called")


def test_critical_start_never_factorizes(monkeypatch):
    # the periodic affine state is already critical: no iteration, so the
    # preconditioner is never applied and K is never factorized
    monkeypatch.setattr(optim, "splu", _refuse_factorization)
    mesh = periodic_mesh_2d(4)
    bc = BoundaryCondition(kind="affine-layer", xi=np.diag([1.2, 0.9]),
                           depth=2.0 * mesh.h)
    result = minimize(mesh, SPRING, bc)
    assert result.converged
    assert result.iterations == 0
    # the patched name is the one minimize factorizes with
    stretch = BoundaryCondition(kind="dirichlet-face-free-traction",
                                xi=np.diag([1.2, 1.0]), faces=("x-", "x+"))
    with pytest.raises(AssertionError, match="splu called"):
        minimize(mesh, SPRING, stretch)


def test_minimize_builds_stiffness_from_volume_weights(monkeypatch):
    # springs make K the exact Hessian; on a stochastic mesh the element
    # volumes differ, so the volume-weighted K differs from the uniform one
    mesh = build_stochastic_mesh(
        StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0, r_min=0.3,
                              R_cov=1.0, seed=3), 0.2, 2)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.5), f=0.7,
                        weight_mode=VOLUME_WEIGHTS)
    xi = np.array([[1.2, 0.05], [0.0, 1.0]])
    built = []

    def spy(mesh_, positions, model_):
        built.append(edge_stiffness_laplacian(mesh_, positions, model_))
        return built[-1]

    monkeypatch.setattr(optim, "edge_stiffness_laplacian", spy)
    bc = BoundaryCondition(kind="affine-layer", xi=xi, depth=0.4)
    result = minimize(mesh, model, bc)
    assert result.converged
    assert result.iterations <= 2
    assert len(built) == 1

    # K is built on the elements that touch a free vertex, so only its free
    # block K_ff, the block minimize factorizes, is the Hessian's
    free = np.repeat(~apply_bc(mesh, bc)[0], 2)
    base = affine_positions(mesh, xi)
    g0 = energy_gradient(mesh, base, model).ravel()
    hessian = np.empty((g0.size, g0.size))
    for k in range(g0.size):
        moved = base.ravel().copy()
        moved[k] += 1.0
        hessian[:, k] = energy_gradient(mesh, moved.reshape(base.shape), model).ravel() - g0
    hessian = hessian[free][:, free]
    stiffness = np.kron(built[0].toarray(), np.eye(2))[free][:, free]
    scale = np.abs(hessian).max()
    assert np.abs(stiffness - hessian).max() <= 1e-8 * scale
    uniform = EnergyModel(pair=model.pair, f=model.f)
    other = np.kron(edge_stiffness_laplacian(mesh, base, uniform).toarray(), np.eye(2))
    assert np.abs(other[free][:, free] - hessian).max() > 1e-2 * scale


def two_triangles():
    """[0, 1, 2] has every vertex on the faces x- and x+, so the face BC pins
    it; [1, 3, 4] has the free vertices 3 and 4."""
    return Mesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.2]]),
        elements=np.array([[0, 1, 2], [1, 3, 4]]),
        h=0.5**0.5,
        boundary_flags=np.zeros(5),
    )


def _face_bc(xi):
    return BoundaryCondition(kind="dirichlet-face-free-traction", xi=xi,
                             faces=("x-", "x+"))


def test_pinned_inverted_element_still_raises():
    # the reflection inverts the pinned triangle; the free vertices follow
    # a translation, so the active triangle keeps J = 1
    mesh = two_triangles()
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                        vol=VolumetricParams(K=1.0, eta=0.0))
    init = mesh.vertices - np.array([2.0, 0.0])
    bc = _face_bc(np.diag([-1.0, 1.0]))
    mask, targets = apply_bc(mesh, bc)
    init[mask] = targets[mask]
    with pytest.raises(InvertedElementError):
        total_energy(mesh, init, model)
    with pytest.raises(InvertedElementError):
        minimize(mesh, model, bc, init=init)


def test_pinned_coincident_vertices_still_raise():
    # xi collapses y, so the pinned vertices 0 and 2 land on one point
    mesh = two_triangles()
    bc = _face_bc(np.array([[1.0, 0.0], [0.0, 0.0]]))
    mask, targets = apply_bc(mesh, bc)
    init = mesh.vertices.copy()
    init[mask] = targets[mask]
    with pytest.raises(CoincidentVerticesError):
        energy_gradient(mesh, init, SPRING)
    with pytest.raises(CoincidentVerticesError):
        minimize(mesh, SPRING, bc, init=init)


# The standard case of the solver's h -> 0 study: Matern hard-core (2D) or
# jittered grid (3D) at intensity 1, r_min 0.3, R_cov 1, lattice seed 3,
# the 2hR layer pinned.
XI_2D = np.array([[1.2, 0.05], [0.0, 1.0]])
XI_3D = np.array([[1.2, 0.05, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.9]])
LANGEVIN_VOL = EnergyModel(pair=PairPotential.langevin_chain(),
                           vol=VolumetricParams(K=1.0, eta=0.1))


def standard_problem(dim, h, model):
    kind = "matern-hardcore" if dim == 2 else "jittered-grid"
    lattice = StochasticLatticeSpec(kind=kind, intensity=1.0, r_min=0.3,
                                    R_cov=1.0, seed=3)
    return CellProblem(xi=XI_2D if dim == 2 else XI_3D,
                       source=StochasticCell(lattice=lattice, h=h, dim=dim),
                       model=model)


@pytest.mark.parametrize("dim, h", [(2, 0.0125), (3, 0.0833)])
def test_spring_cell_matches_exact_oracle(dim, h):
    problem = standard_problem(dim, h, SPRING)
    solution = solve_cell_problem(problem)
    assert solution.converged
    mesh = build_cell_mesh(problem.source)
    exact = spring_oracle(mesh, problem.xi, default_layer_depth(problem.source, mesh))
    assert abs(solution.value - exact) <= 1e-12 * exact
    if dim == 2:
        assert abs(exact - 3.2534707) <= 1e-7


@pytest.mark.parametrize("h, model", [
    (0.0125, LANGEVIN_VOL),
    (0.0125, CHAIN),
    (0.025, CHAIN),
], ids=["h0.0125-langevin+vol", "h0.0125-langevin", "h0.025-langevin"])
def test_fine_matern_cells_converge(h, model):
    solution = solve_cell_problem(standard_problem(2, h, model))
    assert solution.converged
    assert solution.iterations < 100


@pytest.mark.parametrize("dim, h", [(2, 0.05), (3, 0.125)])
def test_minimize_energy_includes_pinned_elements(dim, h):
    problem = standard_problem(dim, h, LANGEVIN_VOL)
    mesh = build_cell_mesh(problem.source)
    bc = BoundaryCondition(kind="affine-layer", xi=problem.xi,
                           depth=default_layer_depth(problem.source, mesh))
    result = minimize(mesh, LANGEVIN_VOL, bc)
    assert result.converged
    full = total_energy(mesh, result.state, LANGEVIN_VOL)
    assert abs(result.energy - full) <= 1e-13 * abs(full)
