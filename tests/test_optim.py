import warnings

import numpy as np
import pytest
from scipy.optimize import line_search

from polynet.assembly import (
    BoundaryCondition,
    EnergyModel,
    FullyConstrainedError,
    affine_positions,
    apply_bc,
    energy_gradient,
)
from polynet.chains import PairPotential
from polynet.meshing import element_gradient, periodic_mesh_2d, periodic_mesh_3d
from polynet.optim import (
    MinimizeSettings,
    OptimizationError,
    lbfgs,
    minimize,
)

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
