import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg

from helpers import random_rotation, spring_oracle
from polynet import optim
from polynet.assembly import (
    BoundaryCondition,
    CoincidentVerticesError,
    EnergyModel,
    FullyConstrainedError,
    InvertedElementError,
    affine_energy,
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
    ARMIJO_C1,
    DEFAULT_SETTINGS,
    GAP_EPS,
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
    evaluated = []

    def fg(x):
        evaluated.append(x)
        return 0.5 * x @ q @ x + c @ x, q @ x + c

    x, f, gnorm, iters, status = lbfgs(
        fg, rng.standard_normal(n), MinimizeSettings(grad_tol=1e-10, max_iters=500))
    assert status == "ok"
    assert np.linalg.norm(x - x_star) <= 1e-8 * (1.0 + np.linalg.norm(x_star))
    # the terminal iterations, where energy differences are roundoff, take
    # the gradient rule's early step instead of exhausting the halvings
    assert len(evaluated) <= 2 * iters


def test_lbfgs_default_settings_stop_on_the_predicted_gap():
    # curvature >= 24 against 1 + |f0| ~ 530: the predicted decrease -g.d/2
    # meets GAP_EPS (1 + |f0|) while |g| is still above 1e-8 (1 + |f0|)
    rng = np.random.default_rng(0)
    n = 24
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    c = rng.standard_normal(n)
    x_star = np.linalg.solve(q, -c)
    x0 = rng.standard_normal(n)
    f0 = 0.5 * x0 @ q @ x0 + c @ x0
    x, f, gnorm, iters, status = lbfgs(lambda x: (0.5 * x @ q @ x + c @ x, q @ x + c),
                                          x0, DEFAULT_SETTINGS)
    assert status == "ok"
    assert gnorm > 1e-8 * (1.0 + abs(f0))
    # f - f* of a quadratic, without the cancellation of f - f(x_star)
    assert 0.5 * (x - x_star) @ q @ (x - x_star) <= GAP_EPS * (1.0 + abs(f0))


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_lbfgs_without_preconditioner_converges_on_stiff_quadratics(scale):
    # the predicted-gap problem with curvature >= 24000 * scale: the unscaled
    # first step -g overshoots beyond what ten halvings recover, the unit
    # step -g/|g| does not
    rng = np.random.default_rng(0)
    n = 24
    a = rng.standard_normal((n, n))
    q = scale * 1000.0 * (a @ a.T + n * np.eye(n))
    c = rng.standard_normal(n)
    x_star = np.linalg.solve(q, -c)
    x0 = rng.standard_normal(n)
    f0 = 0.5 * x0 @ q @ x0 + c @ x0
    x, f, gnorm, iters, status = lbfgs(lambda x: (0.5 * x @ q @ x + c @ x, q @ x + c),
                                          x0, DEFAULT_SETTINGS)
    assert status == "ok"
    assert 0.5 * (x - x_star) @ q @ (x - x_star) <= GAP_EPS * (1.0 + abs(f0))


@pytest.mark.parametrize("grad_tol", [None, 1e-6])
def test_lbfgs_falls_back_to_steepest_descent(monkeypatch, grad_tol):
    # H0 = -I is not positive definite: its first direction +g is not a
    # descent direction, and lbfgs takes -g instead and drops H0, so no later
    # direction ascends.  Such a model does not predict the energy gap
    # either, so the run stops on |g| <= tol alone.
    rng = np.random.default_rng(0)
    n = 24
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    c = rng.standard_normal(n)
    x_star = np.linalg.solve(q, -c)
    x0 = rng.standard_normal(n)
    f0 = 0.5 * x0 @ q @ x0 + c @ x0
    tol = 1e-8 * (1.0 + abs(f0)) if grad_tol is None else grad_tol
    ascents = []
    two_loop = optim._two_loop

    def recording_two_loop(grad, history, precondition):
        direction = two_loop(grad, history, precondition)
        ascents.append(direction @ grad >= 0.0)
        return direction

    monkeypatch.setattr(optim, "_two_loop", recording_two_loop)
    fg = lambda x: (0.5 * x @ q @ x + c @ x, q @ x + c)  # noqa: E731
    settings = MinimizeSettings(grad_tol=grad_tol)
    x, f, gnorm, iters, status = lbfgs(fg, x0, settings, precondition=lambda v: -v)
    assert ascents[0] and sum(ascents) == 1
    assert status == "ok" and gnorm <= tol
    assert np.linalg.norm(x - x_star) <= 1e-7 * (1.0 + np.linalg.norm(x_star))
    # cut short, the run is not converged
    x, f, gnorm, iters, status = lbfgs(fg, x0, replace(settings, max_iters=3),
                                          precondition=lambda v: -v)
    assert (iters, status) == (3, "max_iters") and gnorm > tol


@pytest.mark.parametrize("grad_tol", [None, 1e-8, 1e-10])
@pytest.mark.parametrize("seed", range(6))
def test_lbfgs_converges_after_dropping_a_bad_preconditioner(seed, grad_tol):
    # re-using H0 = -I after the -g fallback left each later two-loop on an
    # indefinite base: most of these runs ended in OptimizationError, and
    # seed 0 at the default tolerance took 334 iterations
    rng = np.random.default_rng(seed)
    n = 24
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    c = rng.standard_normal(n)
    x_star = np.linalg.solve(q, -c)
    x, f, gnorm, iters, status = lbfgs(lambda x: (0.5 * x @ q @ x + c @ x, q @ x + c),
                                       rng.standard_normal(n),
                                       MinimizeSettings(grad_tol=grad_tol),
                                       precondition=lambda v: -v)
    assert status == "ok" and iters <= 30
    assert np.linalg.norm(x - x_star) <= 1e-6 * (1.0 + np.linalg.norm(x_star))


def test_lbfgs_honest_nonconvergence_flag():
    rng = np.random.default_rng(1)
    n = 40
    a = rng.standard_normal((n, n))
    q = a @ a.T + 0.1 * np.eye(n)
    x, f, gnorm, iters, status = lbfgs(
        lambda x: (0.5 * x @ q @ x, q @ x),
        rng.standard_normal(n),
        MinimizeSettings(grad_tol=1e-14, max_iters=1),
    )
    assert iters == 1
    assert status == "max_iters"
    assert gnorm > 1e-14


def test_lbfgs_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        lbfgs(lambda x: (float("nan"), x), np.zeros(3))


def test_affine_state_is_critical_on_periodic_lattice():
    # lattice symmetry makes the affine state a critical point, so the solver
    # accepts the init without iterating
    mesh = periodic_mesh_2d(4)
    bc = BoundaryCondition(kind="affine-layer", xi=np.eye(2), depth=2.0 * mesh.h)
    result = minimize(mesh, SPRING, bc)
    assert result.status == "ok"
    assert result.iterations == 0
    assert result.value == 3.0


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
    assert result.status == "ok"
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
    assert result.status == "max_iters"


def test_minimize_counts_its_evaluations(monkeypatch):
    # every energy-and-gradient call of the run, the start's included
    calls = []
    evaluate = optim.energy_and_gradient

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(optim, "energy_and_gradient", counting)
    bc = BoundaryCondition(kind="dirichlet-face-free-traction", xi=np.diag([1.3, 1.0, 1.0]),
                           faces=("x-", "x+"))
    result = minimize(periodic_mesh_3d(2), CHAIN, bc)
    assert result.status == "ok"
    assert result.evaluations == len(calls) > result.iterations > 0


def test_minimize_is_deterministic():
    mesh = periodic_mesh_3d(2)
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction",
        xi=np.diag([1.2, 1.0, 1.0]),
        faces=("x-", "x+"),
    )
    r1 = minimize(mesh, CHAIN, bc)
    r2 = minimize(mesh, CHAIN, bc)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.state, r2.state)


def test_minimize_leaves_init_unchanged_and_returns_fresh_states():
    mesh = periodic_mesh_3d(2)
    xi = np.diag([1.2, 1.0, 1.0])
    bc = BoundaryCondition(kind="dirichlet-face-free-traction", xi=xi, faces=("x-", "x+"))
    mask, targets = apply_bc(mesh, bc)
    init = mesh.vertices.copy()
    before = init.copy()
    r1 = minimize(mesh, CHAIN, bc, init=init)
    np.testing.assert_array_equal(init, before)
    r2 = minimize(mesh, CHAIN, bc)
    assert not np.shares_memory(r1.state, r2.state)
    # pinned rows xi X, free rows the solution each call reports
    for result in (r1, r2):
        assert result.status == "ok"
        np.testing.assert_array_equal(result.state[mask], targets[mask])
        assert result.value == pytest.approx(total_energy(mesh, result.state, CHAIN), rel=1e-12)
        grad = energy_gradient(mesh, result.state, CHAIN)[~mask]
        assert np.linalg.norm(grad) == pytest.approx(result.grad_norm, rel=1e-6)
    assert not np.array_equal(r1.state, r2.state)  # from different starts


def test_minimize_decreases_energy_from_init():
    mesh = periodic_mesh_3d(2)
    xi = np.diag([1.4, 1.0, 1.0])
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction", xi=xi, faces=("x-", "x+")
    )
    from polynet.assembly import total_energy

    init = affine_positions(mesh, xi)
    result = minimize(mesh, SPRING, bc)
    assert result.status == "ok"
    assert result.value < total_energy(mesh, init, SPRING)
    assert result.grad_norm <= 1e-8 * (1 + abs(result.value))


def test_minimize_rejects_fully_pinned_and_bad_init():
    mesh = periodic_mesh_3d(2)
    with pytest.raises(FullyConstrainedError):
        minimize(mesh, SPRING,
                 BoundaryCondition(kind="affine-layer", xi=np.eye(3), depth=0.5))
    # depth h leaves the centre vertex free (at 2h every vertex was pinned,
    # so each bad init below was a FullyConstrainedError)
    bc = BoundaryCondition(kind="affine-layer", xi=np.eye(3), depth=mesh.h)
    centre = int(np.flatnonzero((mesh.vertices == 0.5).all(axis=1))[0])
    bad_init = mesh.vertices.copy()
    bad_init[centre] = np.nan
    with pytest.raises(ValueError, match="energy is not finite at the initial state"):
        minimize(mesh, SPRING, bc, init=bad_init)
    for shape in ((3, 3), mesh.vertices.T.shape, (mesh.vertices.size,)):
        with pytest.raises(ValueError, match="initial state does not match the mesh"):
            minimize(mesh, SPRING, bc, init=np.zeros(shape))


def test_settings_validation():
    # an infinite tolerance would report any start converged at iteration 0
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="grad_tol"):
            MinimizeSettings(grad_tol=bad)
    for bad in (0, 2.5, 2.0):  # a non-integer would end in range's TypeError
        with pytest.raises(ValueError, match="max_iters"):
            MinimizeSettings(max_iters=bad)
    assert MinimizeSettings(max_iters=np.int64(3)).max_iters == 3


def inconsistent(x):
    """f = x_0 with a gradient that claims f falls along +x_0."""
    return float(x[0]), np.array([-1.0, 0.0])


def test_line_search_failure_raises():
    # inconsistent gradient: every claimed descent direction increases f, so
    # the backtracking search finds no step and the solver must raise
    # instead of looping
    with pytest.raises(OptimizationError):
        lbfgs(inconsistent, np.zeros(2), MinimizeSettings(grad_tol=1e-12, max_iters=10))


def test_line_search_failure_lets_no_warning_escape():
    # the inconsistent gradient of test_line_search_failure_raises: the
    # backtracking search fails silently, and lbfgs raises without a warning
    x0 = np.zeros(2)
    f0, g0 = inconsistent(x0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, gnorm = float(g0 @ -g0), float(np.linalg.norm(g0))
        assert optim._line_search(inconsistent, x0, f0, g0, -g0, slope, gnorm) is None
        with pytest.raises(OptimizationError):
            lbfgs(inconsistent, x0, MinimizeSettings(grad_tol=1e-12, max_iters=10))


def one_dimensional(fun, slope):
    def fg(x):
        return float(fun(x[0])), np.array([float(slope(x[0]))])
    return fg


# (energy, its derivative, start, search direction); "more-thuente" is the
# first test function of More & Thuente (ACM TOMS 20, 1994) with beta = 2
SEARCHES = {
    "one-halving": (lambda t: (t - 3.0) ** 2, lambda t: 2.0 * (t - 3.0), 0.0, 6.0),
    "far-minimum": (lambda t: (t - 100.0) ** 2, lambda t: 2.0 * (t - 100.0), 0.0, 1.0),
    "more-thuente": (lambda t: -t / (t * t + 2.0),
                     lambda t: (t * t - 2.0) / (t * t + 2.0) ** 2, 0.0, 1.0),
    "two-halvings": (lambda t: t ** 4, lambda t: 4.0 * t ** 3, 1.0, -4.0),
}
HALVINGS = {"one-halving": 1, "far-minimum": 0, "more-thuente": 0, "two-halvings": 2}


def counted_search(fg, t0, d):
    """_line_search from t0 along d, given the slope g.d and |g| as lbfgs
    gives them, with every point fg was called at."""
    calls = []

    def counted(x):
        calls.append(x.copy())
        return fg(x)

    x0, direction = np.array([t0]), np.array([d])
    f0, g0 = fg(x0)
    slope, gnorm = float(direction @ g0), float(np.linalg.norm(g0))
    return optim._line_search(counted, x0, f0, g0, direction, slope, gnorm), calls


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_armijo_search_takes_first_halving_with_sufficient_decrease(name):
    fun, slope, t0, d = SEARCHES[name]
    step, calls = counted_search(one_dimensional(fun, slope), t0, d)
    slope0 = slope(t0) * d
    assert slope0 < 0.0
    alphas = [0.5 ** k for k in range(10)]
    decrease = [fun(t0 + a * d) <= fun(t0) + ARMIJO_C1 * a * slope0 for a in alphas]
    first = decrease.index(True)
    assert first == HALVINGS[name]
    # the trials are alpha = 1, 1/2, ... up to the accepted one, each
    # evaluated once, and the step carries that point's energy and gradient
    assert [c[0] for c in calls] == [t0 + a * d for a in alphas[:first + 1]]
    assert step.x[0] == t0 + alphas[first] * d
    assert (step.f, step.g[0]) == (fun(step.x[0]), slope(step.x[0]))


def test_armijo_search_rejects_a_step_that_does_not_move_x():
    # x + alpha d == x for every alpha, and the energy test alone passes
    # there with equality
    fun, slope = SEARCHES["one-halving"][:2]
    step, calls = counted_search(one_dimensional(fun, slope), 1.0, 1e-20)
    assert step is None
    assert len(calls) == 10 and all(c[0] == 1.0 for c in calls)


def test_armijo_search_nan_energy_fails_sufficient_decrease():
    fun, slope = SEARCHES["one-halving"][:2]
    # NaN beyond t = 4: the unit step from 0 along 6 is rejected, the half
    # step taken
    step, calls = counted_search(
        one_dimensional(lambda t: fun(t) if t <= 4.0 else math.nan, slope), 0.0, 6.0)
    assert [c[0] for c in calls] == [6.0, 3.0]
    assert step.x[0] == 3.0 and step.f == 0.0
    step, calls = counted_search(one_dimensional(lambda t: math.nan if t else 9.0, slope),
                                 0.0, 6.0)
    assert step is None and len(calls) == 10


def test_line_search_accepts_contracting_gradient_within_energy_noise():
    # the energy rises by 1e-13 along the direction, below the noise level
    # 1e-12 * (1 + |f|), so no trial decreases it sufficiently; the gradient
    # vanishes at the unit step, which is taken
    fun, slope = (lambda t: 1.0 - 1e-13 * t), (lambda t: t)
    alphas = [0.5 ** k for k in range(10)]
    assert not any(fun(1.0 - a) <= fun(1.0) - ARMIJO_C1 * a for a in alphas)
    step, calls = counted_search(one_dimensional(fun, slope), 1.0, -1.0)
    assert [c[0] for c in calls] == [0.0]
    assert step.x[0] == 0.0 and step.f == 1.0 and step.g[0] == 0.0


def test_line_search_rejects_contracting_gradient_when_energy_rises():
    # the same gradient, but the energy rises by at least 1e-6 / 512, beyond
    # noise, at every trial
    fun, slope = (lambda t: 1.0 - 1e-6 * t), (lambda t: t)
    step, calls = counted_search(one_dimensional(fun, slope), 1.0, -1.0)
    assert step is None and len(calls) == 10


@pytest.mark.parametrize("halvings", [3, 12])
def test_line_search_halves_inverted_trials_without_counting_them(halvings):
    # trial points beyond alpha = 2^-halvings invert an element, as steps past
    # the volumetric log barrier do at eta = 0; they are not among the 10
    # trials, so even 12 halvings reach the first step that inverts nothing
    fun, slope = SEARCHES["far-minimum"][:2]

    def fg(x):
        if x[0] > 0.5 ** halvings:
            raise InvertedElementError("volume-change energy undefined for J <= 0")
        return one_dimensional(fun, slope)(x)

    step, calls = counted_search(fg, 0.0, 1.0)
    assert [c[0] for c in calls] == [0.5 ** k for k in range(halvings + 1)]
    assert step.x[0] == 0.5 ** halvings


def test_lbfgs_exact_inverse_hessian_converges_in_one_iteration():
    rng = np.random.default_rng(2)
    n = 24
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    c = rng.standard_normal(n)
    evaluated = []

    def fg(x):
        evaluated.append(x)
        return 0.5 * x @ q @ x + c @ x, q @ x + c

    x, f, gnorm, iters, status = lbfgs(
        fg,
        rng.standard_normal(n),
        MinimizeSettings(grad_tol=1e-9),
        precondition=lambda v: np.linalg.solve(q, v),
    )
    assert status == "ok"
    assert iters == 1
    assert len(evaluated) == 2  # the start and the accepted unit step, once each
    np.testing.assert_allclose(x, np.linalg.solve(q, -c), rtol=1e-10, atol=1e-12)


def _refuse_factorization(*args, **kwargs):
    raise AssertionError("splu called")


def test_critical_start_never_factorizes(monkeypatch):
    # the periodic affine state is already critical: no iteration, so the
    # preconditioner is never applied and K is never factorized; minimize
    # imports splu where it factorizes, so the scipy name is the one to patch
    monkeypatch.setattr(scipy.sparse.linalg, "splu", _refuse_factorization)
    mesh = periodic_mesh_2d(4)
    bc = BoundaryCondition(kind="affine-layer", xi=np.diag([1.2, 0.9]),
                           depth=2.0 * mesh.h)
    result = minimize(mesh, SPRING, bc)
    assert result.status == "ok"
    assert result.iterations == 0
    # the patched name is the one minimize factorizes with
    stretch = BoundaryCondition(kind="dirichlet-face-free-traction",
                                xi=np.diag([1.2, 1.0]), faces=("x-", "x+"))
    with pytest.raises(AssertionError, match="splu called"):
        minimize(mesh, SPRING, stretch)


def test_minimize_builds_stiffness_as_the_spring_hessian(monkeypatch):
    # springs make K the exact Hessian, on a stochastic mesh too
    mesh = build_stochastic_mesh(
        StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0, r_min=0.3,
                              R_cov=1.0, seed=3), 0.2, 2)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.5), f=0.7)
    xi = np.array([[1.2, 0.05], [0.0, 1.0]])
    built = []

    def spy(mesh_, positions, model_, free_):
        built.append(edge_stiffness_laplacian(mesh_, positions, model_, free_))
        return built[-1]

    monkeypatch.setattr(optim, "edge_stiffness_laplacian", spy)
    bc = BoundaryCondition(kind="affine-layer", xi=xi, depth=0.4)
    result = minimize(mesh, model, bc)
    assert result.status == "ok"
    assert result.iterations <= 2
    assert len(built) == 1

    # K_ff is built on the elements that touch a free vertex; it equals the
    # free block of the whole mesh's K, and that block is the Hessian's
    free_vertices = ~apply_bc(mesh, bc)[0]
    free = np.repeat(free_vertices, 2)
    base = affine_positions(mesh, xi)
    whole = edge_stiffness_laplacian(mesh, base, model).toarray()
    np.testing.assert_allclose(built[0].toarray(), whole[free_vertices][:, free_vertices],
                               rtol=1e-13, atol=0.0)
    g0 = energy_gradient(mesh, base, model).ravel()
    hessian = np.empty((g0.size, g0.size))
    for k in range(g0.size):
        moved = base.ravel().copy()
        moved[k] += 1.0
        hessian[:, k] = energy_gradient(mesh, moved.reshape(base.shape), model).ravel() - g0
    hessian = hessian[free][:, free]
    stiffness = np.kron(built[0].toarray(), np.eye(2))
    scale = np.abs(hessian).max()
    assert np.abs(stiffness - hessian).max() <= 1e-8 * scale


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


def test_split_pinned_kept_on_mesh_per_free_mask():
    # the second minimize reuses the split of the first (same free mask), yet
    # its pinned checks still see its own positions
    mesh = two_triangles()
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                        vol=VolumetricParams(K=1.0, eta=0.0))
    assert minimize(mesh, model, _face_bc(np.eye(2))).status == "ok"
    split = mesh._cache["split"]
    bc = _face_bc(np.diag([-1.0, 1.0]))
    init = mesh.vertices - np.array([2.0, 0.0])
    mask, targets = apply_bc(mesh, bc)
    init[mask] = targets[mask]
    with pytest.raises(InvertedElementError):
        minimize(mesh, model, bc, init=init)
    assert mesh._cache["split"] is split
    left = BoundaryCondition(kind="dirichlet-face-free-traction", xi=np.eye(2), faces=("x-",))
    assert minimize(mesh, SPRING, left).status == "ok"
    assert mesh._cache["split"] is not split


# The standard case of the solver's h -> 0 study: Matern hard-core (2D) or
# jittered grid (3D) at intensity 1, r_min 0.3, R_cov 1, lattice seed 3,
# the 2hR layer pinned.
XI_2D = np.array([[1.2, 0.05], [0.0, 1.0]])
XI_3D = np.array([[1.2, 0.05, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.9]])
LANGEVIN_VOL = EnergyModel(pair=PairPotential.langevin_chain(),
                           vol=VolumetricParams(K=1.0, eta=0.1))


def standard_problem(dim, h, model, seed=3):
    kind = "matern-hardcore" if dim == 2 else "jittered-grid"
    lattice = StochasticLatticeSpec(kind=kind, intensity=1.0, r_min=0.3,
                                    R_cov=1.0, seed=seed)
    return CellProblem(xi=XI_2D if dim == 2 else XI_3D,
                       source=StochasticCell(lattice=lattice, h=h, dim=dim),
                       model=model)


def test_eta_zero_3d_cells_converge():
    # without a cut-off, long steps push thin 3D elements past the log
    # barrier; the line search halves them, and every cell converges
    model = EnergyModel(pair=PairPotential.langevin_chain(), vol=VolumetricParams(K=1.0))
    for seed in range(10):
        assert solve_cell_problem(standard_problem(3, 0.125, model, seed)).status == "ok"


@pytest.mark.parametrize("dim, h", [(2, 0.0125), (3, 0.0833)])
def test_spring_cell_matches_exact_oracle(dim, h):
    problem = standard_problem(dim, h, SPRING)
    solution = solve_cell_problem(problem)
    assert solution.status == "ok"
    mesh = problem.source.mesh()
    exact = spring_oracle(mesh, problem.xi, problem.source.layer_depth)
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
    assert solution.status == "ok"
    assert solution.iterations < 100


@pytest.mark.parametrize("dim, h", [(2, 0.05), (3, 0.125)])
def test_minimize_energy_includes_pinned_elements(dim, h):
    problem = standard_problem(dim, h, LANGEVIN_VOL)
    mesh = problem.source.mesh()
    bc = BoundaryCondition(kind="affine-layer", xi=problem.xi,
                           depth=problem.source.layer_depth)
    result = minimize(mesh, LANGEVIN_VOL, bc)
    assert result.status == "ok"
    full = total_energy(mesh, result.state, LANGEVIN_VOL)
    assert abs(result.value - full) <= 1e-13 * abs(full)


@pytest.mark.parametrize("dim, h", [(2, 0.05), (3, 0.125)])
def test_default_start_is_the_affine_init_bit_for_bit(dim, h):
    # the default start is evaluated like any other point, so passing the
    # affine positions as init changes nothing
    problem = standard_problem(dim, h, LANGEVIN_VOL)
    mesh = problem.source.mesh()
    bc = BoundaryCondition(kind="affine-layer", xi=problem.xi,
                           depth=problem.source.layer_depth)
    default = minimize(mesh, LANGEVIN_VOL, bc)
    given = minimize(mesh, LANGEVIN_VOL, bc, init=affine_positions(mesh, problem.xi))
    assert default.iterations > 0
    assert (default.value, default.grad_norm) == (given.value, given.grad_norm)
    np.testing.assert_array_equal(default.state, given.state)


def test_cell_solutions_on_a_shared_mesh_equal_fresh_ones():
    problem = standard_problem(2, 0.1, LANGEVIN_VOL)
    mesh = problem.source.mesh()
    split = None
    for xi in (XI_2D, np.diag([0.9, 1.1]), XI_2D):
        cell = replace(problem, xi=xi, restarts=2)
        assert solve_cell_problem(cell, mesh) == solve_cell_problem(cell)
        split = split or mesh._cache["split"]
        assert mesh._cache["split"] is split


def test_supported_range_cells_converge():
    # seeded strains across the supported range: singular values
    # log-uniform in [0.3, 3] between Haar rotations on both sides; a cell
    # that CellProblem rejects (det xi <= eta) is skipped, every other one
    # converges
    models = [SPRING, CHAIN, LANGEVIN_VOL,
              EnergyModel(pair=PairPotential.langevin_chain(), vol=VolumetricParams(K=1.0))]
    rng = np.random.default_rng(12)
    solved = 0
    for dim, h in ((2, 0.1), (3, 0.125)):
        source = standard_problem(dim, h, SPRING).source
        mesh = source.mesh()
        for _ in range(5):
            stretches = np.exp(rng.uniform(math.log(0.3), math.log(3.0), dim))
            xi = random_rotation(dim, rng) @ np.diag(stretches) @ random_rotation(dim, rng)
            for model in models:
                try:
                    problem = CellProblem(xi=xi, source=source, model=model)
                except ValueError:
                    continue
                solution = solve_cell_problem(problem, mesh)
                assert solution.status == "ok" and solution.iterations <= 60
                solved += 1
    assert solved >= 30


@pytest.mark.parametrize("dim, h", [(2, 0.05), (3, 0.0833)])
def test_default_stop_keeps_cell_values_and_single_spring_iteration(dim, h):
    # the predicted-gap stop moves a density by at most ~GAP_EPS relative
    for model in (CHAIN, LANGEVIN_VOL):
        problem = standard_problem(dim, h, model)
        mesh = problem.source.mesh()
        default = solve_cell_problem(problem, mesh)
        tight = solve_cell_problem(
            replace(problem, settings=MinimizeSettings(grad_tol=1e-13)), mesh)
        assert default.status == "ok" and tight.status == "ok"
        assert abs(default.value - tight.value) <= 2e-14 * abs(tight.value)
    # K is the spring's exact Hessian: one step, and the gap is then roundoff
    spring = solve_cell_problem(standard_problem(dim, h, SPRING))
    assert spring.status == "ok" and spring.iterations == 1


def test_default_stop_takes_fewer_iterations_than_the_gradient_rule():
    # the same cells with grad_tol set to the default rule's value
    # 1e-8 (1 + |E(init)|) alone; E(init) is the affine energy of the cell
    totals = [0, 0]
    for seed in range(3):
        for model in (CHAIN, LANGEVIN_VOL):
            problem = standard_problem(2, 0.05, model, seed)
            mesh = problem.source.mesh()
            rule = 1e-8 * (1.0 + abs(affine_energy(mesh, problem.xi, model)))
            totals[0] += solve_cell_problem(problem, mesh).iterations
            totals[1] += solve_cell_problem(
                replace(problem, settings=MinimizeSettings(grad_tol=rule)), mesh).iterations
    assert totals[0] < totals[1]
