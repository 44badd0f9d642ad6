import csv
import itertools
import math
from functools import partial

import numpy as np
import pytest

from helpers import (count_cell_meshes, patch_cell_mesh, rotation_2d, single_cell_oracle_2d,
                     spring_oracle)
from polynet.assembly import EnergyModel, affine_energy
from polynet.chains import ChainParams, GrowthBounds, PairPotential, check_growth_condition
from polynet.homogenize import (
    CellProblem,
    PeriodicCell,
    StochasticCell,
    anisotropy_counterexample,
    cell_estimator,
    estimate_whom,
    frame_invariance_probe,
    isotropy_probe,
    periodic_density,
    rank_one_convexity_sample,
    random_rotations,
    solve_cell_problem,
    solve_cells,
    summary_dict,
    sweep,
    sweep_runs,
    write_estimates_csv,
)
from polynet.meshing import StochasticLatticeSpec, periodic_mesh_2d
from polynet.optim import MinimizeResult, MinimizeSettings
from polynet.volumetric import VolumetricParams

SPRING = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
LATTICE_2D = StochasticLatticeSpec(
    kind="matern-hardcore", intensity=1.0, r_min=0.3, R_cov=1.0, seed=0
)


def quadratic_density(xi):
    """Closed form for the nw lattice: sum of squared direction stretches."""
    xi = np.asarray(xi, dtype=float)
    e1 = xi @ np.array([1.0, 0.0])
    e2 = xi @ np.array([0.0, 1.0])
    d = xi @ np.array([-1.0, 1.0])
    return e1 @ e1 + e2 @ e2 + 0.5 * (d @ d)


# ---------------------------------------------------------------------------
# cell problems


def test_cell_density_identity_quadratic():
    problem = CellProblem(xi=np.eye(2), source=PeriodicCell(m=4), model=SPRING)
    assert solve_cell_problem(problem).value == 3.0


def test_cell_density_fully_pinned_coarse_mesh():
    # at m = 2 the 2h layer swallows every vertex, and so does the 2hR layer
    # of h = 0.25, R = 1 (depth 0.5, the unit box's inradius); the admissible
    # set is the affine state alone and its energy is returned, restarts or not
    stochastic = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    xi = np.diag([1.1, 0.9])
    for restarts in (1, 3):
        problem = CellProblem(xi=np.eye(2), source=PeriodicCell(m=2), model=SPRING,
                              restarts=restarts)
        sol = solve_cell_problem(problem)
        assert sol.n_free == 0
        assert sol.value == 3.0
        assert (sol.iterations, sol.evaluations, sol.status) == (0, 0, "ok")
        problem = CellProblem(xi=xi, source=stochastic, model=SPRING, restarts=restarts)
        sol = solve_cell_problem(problem)
        assert (sol.n_free, sol.iterations, sol.evaluations, sol.status) == (0, 0, 0, "ok")
        assert sol.value == affine_energy(stochastic.mesh(), xi, SPRING)


def test_cell_density_calibrated_chain_rest_energy():
    # choose c so the chain energy vanishes at stretch 1; the identity cell
    # problem then reports zero density
    base = PairPotential.langevin_chain(ChainParams(k=1.0, beta=1.0, c=0.0, n=1.0)).energy(1.0)
    params = ChainParams(k=1.0, beta=1.0, c=base, n=1.0)
    model = EnergyModel(pair=PairPotential.langevin_chain(params))
    problem = CellProblem(xi=np.eye(2), source=PeriodicCell(m=4), model=model)
    assert abs(solve_cell_problem(problem).value) <= 1e-12


def test_cell_problem_rejects_vol_with_small_det():
    model = EnergyModel(
        pair=PairPotential.quadratic_spring(1.0),
        vol=VolumetricParams(K=1.0, eta=0.5),
    )
    with pytest.raises(ValueError):
        CellProblem(xi=0.5 * np.eye(2), source=PeriodicCell(m=4), model=model)


def test_cell_restarts_do_not_hurt_convex_problem():
    xi = np.array([[1.1, 0.0], [0.0, 0.9]])
    one = solve_cell_problem(
        CellProblem(xi=xi, source=PeriodicCell(m=4), model=SPRING, restarts=1)
    ).value
    multi = solve_cell_problem(
        CellProblem(xi=xi, source=PeriodicCell(m=4), model=SPRING,
                    restarts=3, seed=7)
    ).value
    assert multi <= one + 1e-12
    assert abs(multi - one) <= 1e-9 * abs(one)


# ---------------------------------------------------------------------------
# single-cell oracle


def test_oracle_matches_closed_form():
    for xi in (
        np.eye(2),
        np.array([[1.1, 0.0], [0.0, 0.9]]),
        np.array([[1.0, 0.1], [0.1, 1.0]]),
        np.array([[1.3, 0.2], [-0.1, 0.8]]),
    ):
        for got in (single_cell_oracle_2d(xi), periodic_density(xi, SPRING)):
            assert abs(got - quadratic_density(xi)) <= 1e-12 * max(1.0, abs(got))


@pytest.mark.parametrize("diagonal", ["nw", "ne"])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_oracle_matches_exact_mesh_solve(m, diagonal):
    # an independent reference: the exact sparse solve on the m x m periodic
    # mesh with the 2h layer pinned; for m <= 3 the layer is the whole mesh,
    # so the reference is the mesh's affine energy
    mesh = periodic_mesh_2d(m, diagonal)
    rng = np.random.default_rng(m)
    for _ in range(4):
        xi = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
        stiffness, f = rng.uniform(0.5, 2.0, 2)
        exact = spring_oracle(mesh, xi, 2.0 * mesh.h, stiffness, f)
        spring = EnergyModel(pair=PairPotential.quadratic_spring(stiffness), f=f)
        for got in (single_cell_oracle_2d(xi, stiffness, f, diagonal),
                    periodic_density(xi, spring, 2, diagonal)):
            assert abs(got - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("kwargs", [
    {"stiffness": 0.0}, {"stiffness": -1.0}, {"f": 0.0}, {"f": -2.0}, {"diagonal": "sw"},
], ids=["stiffness 0", "stiffness -1", "f 0", "f -2", "diagonal sw"])
def test_oracle_rejects_bad_inputs(kwargs):
    # a zero stiffness or f divided by zero in the counterexample's ratio
    with pytest.raises(ValueError):
        anisotropy_counterexample(**kwargs)


@pytest.mark.parametrize("dim, diagonal", [(2, "sw"), (1, "nw"), (4, "nw")])
def test_periodic_density_rejects_bad_lattices(dim, diagonal):
    with pytest.raises(ValueError):
        periodic_density(np.eye(dim), SPRING, dim, diagonal)


def test_oracle_is_quadratic_in_xi():
    xi = np.array([[1.1, 0.3], [0.0, 0.8]])
    base = periodic_density(xi, SPRING)
    assert abs(periodic_density(2.0 * xi, SPRING) - 4.0 * base) <= 1e-12 * abs(base)
    # quadratic fit over scalings has no residual
    ts = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    vals = np.array([periodic_density(t * xi, SPRING) for t in ts])
    coeffs = np.polyfit(ts, vals, 2)
    fit = np.polyval(coeffs, ts)
    assert np.max(np.abs(fit - vals)) <= 1e-10 * np.max(np.abs(vals))
    assert abs(coeffs[1]) <= 1e-10 and abs(coeffs[2]) <= 1e-10


def test_oracle_agrees_with_refined_cell_estimates():
    # the affine state is critical at every m, so each estimate is the
    # one-cell value to roundoff; at m = 1 and 2 the layer pins every vertex
    for m, diagonal in itertools.product([1, 2, 4, 16], ["nw", "ne"]):
        for xi in (np.array([[1.1, 0.0], [0.0, 0.9]]), np.array([[1.0, 0.3], [-0.2, 0.8]])):
            oracle = single_cell_oracle_2d(xi, diagonal=diagonal)
            source = PeriodicCell(m=m, diagonal=diagonal)
            value = solve_cell_problem(CellProblem(xi=xi, source=source, model=SPRING)).value
            assert abs(value - oracle) <= 1e-12 * abs(oracle)


PERIODIC_MODELS = {
    "spring": SPRING,
    "langevin": EnergyModel(pair=PairPotential.langevin_chain()),
    "langevin+vol": EnergyModel(pair=PairPotential.langevin_chain(),
                                vol=VolumetricParams(K=1.0, eta=0.1)),
}
LATTICES = [(2, "nw"), (2, "ne"), (3, "nw")]


@pytest.mark.parametrize("model", PERIODIC_MODELS.values(), ids=PERIODIC_MODELS.keys())
@pytest.mark.parametrize("dim, diagonal", LATTICES, ids=["2d-nw", "2d-ne", "3d"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_periodic_density_matches_mesh_solves(m, dim, diagonal, model):
    # the closed form that sweeps read against the real m-cell solve: the
    # layer pins every vertex at m = 2 and 3, all but 4 (2D) or 8 (3D) at 5
    rng = np.random.default_rng([m, dim])
    source = PeriodicCell(m=m, dim=dim, diagonal=diagonal)
    for _ in range(3):
        xi = np.eye(dim) + 0.2 * rng.uniform(-1.0, 1.0, (dim, dim))
        solution = solve_cell_problem(CellProblem(xi=xi, source=source, model=model))
        density = periodic_density(xi, model, dim, diagonal)
        assert abs(density - solution.value) <= 1e-14 * abs(solution.value)
        assert solution.iterations == 0


# each periodic cell error as the m-cell solve raises it: (model, xi)
CELL_ERRORS = {
    "det below eta": (PERIODIC_MODELS["langevin+vol"], np.diag([0.05, 1.0])),
    "det 0 at eta 0": (EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                                   vol=VolumetricParams(K=1.0, eta=0.0)),
                       np.diag([1.0, 0.0])),
    "singular xi, springs": (SPRING, np.diag([1.0, 0.0])),
    "singular xi, springs 3d": (SPRING, np.diag([1.0, 1.0, 0.0])),
    "singular xi, langevin": (PERIODIC_MODELS["langevin"], np.array([[1.0, 1.0], [1.0, 1.0]])),
}


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("case", CELL_ERRORS)
def test_closed_form_cells_fail_as_mesh_solves(case, m):
    model, xi = CELL_ERRORS[case]
    source = PeriodicCell(m=m, dim=xi.shape[0])
    with pytest.raises((ValueError, RuntimeError)) as on_mesh:
        solve_cell_problem(CellProblem(xi=xi, source=source, model=model))
    closed = solve_cells([(xi, source, 0)], model)(xi, source, 0)
    assert type(closed) is type(on_mesh.value)
    assert str(closed) == str(on_mesh.value)


@pytest.mark.parametrize("model", PERIODIC_MODELS.values(), ids=PERIODIC_MODELS.keys())
@pytest.mark.parametrize("dim, diagonal", LATTICES, ids=["2d-nw", "2d-ne", "3d"])
def test_periodic_density_stack_equals_single_calls(dim, diagonal, model):
    # one pass over a stack gives every xi's own value bit for bit
    rng = np.random.default_rng([dim, len(diagonal), len(model.pair.kind)])
    xis = np.eye(dim) + 0.3 * rng.uniform(-1.0, 1.0, (200, dim, dim))
    single = [periodic_density(xi, model, dim, diagonal) for xi in xis]
    assert all(type(value) is float for value in single)
    stacked = periodic_density(xis, model, dim, diagonal)
    assert stacked.shape == (200,)
    assert stacked.tobytes() == np.array(single).tobytes()
    # any stack shape is kept; a stack of one or of zero is still a stack
    nested = periodic_density(xis.reshape(4, 50, dim, dim), model, dim, diagonal)
    assert nested.tobytes() == stacked.tobytes() and nested.shape == (4, 50)
    assert periodic_density(xis[:1], model, dim, diagonal).tolist() == single[:1]
    assert periodic_density(xis[:0], model, dim, diagonal).shape == (0,)


def test_periodic_density_stack_raises_the_first_error():
    eta0 = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                       vol=VolumetricParams(K=1.0, eta=0.0))
    good, flipped = np.eye(2), np.diag([-2.0, 1.0])
    with pytest.raises(ValueError) as alone:
        periodic_density(flipped, eta0)
    with pytest.raises(ValueError) as stacked:
        periodic_density(np.array([good, flipped, np.diag([-3.0, 1.0])]), eta0)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)
    for bad in (np.eye(3), np.ones(4), np.ones((2, 3))):
        with pytest.raises(ValueError, match="does not match the mesh dimension"):
            periodic_density(bad, SPRING)


@pytest.mark.parametrize("case", CELL_ERRORS)
def test_sweep_mixing_valid_and_failing_xi_keeps_each_outcome(case):
    # the cells of a sweep are checked and evaluated as one stack, yet every
    # xi gets the outcome of its own one-xi sweep
    model, bad = CELL_ERRORS[case]
    dim = bad.shape[0]
    rng = np.random.default_rng(dim)
    xis = [np.eye(dim) + 0.1 * rng.uniform(-1.0, 1.0, (dim, dim)), bad,
           np.eye(dim) + 0.1 * rng.uniform(-1.0, 1.0, (dim, dim))]
    rotations = random_rotations(dim, 2, 3)
    source = PeriodicCell(m=0, dim=dim)
    mixed, mixed_probes = sweep(xis, [2, 3], model, source, frame=rotations, iso=rotations)
    for k, xi in enumerate(xis):
        (alone,), alone_probes = sweep([xi], [2, 3], model, source, frame=rotations,
                                       iso=rotations)
        assert alone_probes["0"] == mixed_probes[str(k)]
        if isinstance(alone, Exception):
            assert type(mixed[k]) is type(alone) and str(mixed[k]) == str(alone)
            continue
        assert [(s.h, r) for s in alone.per_h for r in s.records] \
            == [(s.h, r) for s in mixed[k].per_h for r in s.records]
    assert isinstance(mixed[1], RuntimeError)


def test_sweep_rejects_wrong_shapes_before_any_cell(monkeypatch):
    # a 3x3 xi or rotation in a 2D sweep used to become a cell failure with
    # numpy's matmul message (periodic), fail in apply_bc after building a
    # mesh (stochastic), or escape from the probe as a bare numpy error
    from polynet import homogenize

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    patch_cell_mesh(monkeypatch, lambda build: refuse)
    monkeypatch.setattr(homogenize, "periodic_density", refuse)
    eye2, eye3 = np.eye(2), np.eye(3)
    for source in (PeriodicCell(m=0), StochasticCell(LATTICE_2D, h=0.3, dim=2)):
        scales = [2, 4] if isinstance(source, PeriodicCell) else [0.3, 0.25]
        with pytest.raises(ValueError, match="xi does not match"):
            sweep([eye2, eye3], scales, SPRING, source)
        for probes in ({"frame": [eye3]}, {"iso": [np.eye(2), eye3]}):
            with pytest.raises(ValueError, match="probe rotation does not match"):
                sweep([eye2], scales, SPRING, source, **probes)


def test_solve_cells_records_a_wrong_shape_periodic_cell():
    # the closed form gives it the m-cell solve's error; the other cells of
    # its lattice are still answered, also an xi with the same entries,
    # which the cell lookup once took for the wrong-shape one
    source, xi = PeriodicCell(m=3), np.diag([1.1, 0.9])
    cells = [(np.eye(3), source, 0), (xi.ravel(), source, 0), (xi, source, 0)]
    closed, on_mesh = solve_cells(cells, SPRING), solve_cells(cells, SPRING, restarts=2)
    for cell in cells[:2]:
        assert isinstance(closed(*cell), ValueError)
        assert str(closed(*cell)) == "macroscopic gradient does not match the mesh dimension"
        assert type(closed(*cell)) is type(on_mesh(*cell))
        assert str(closed(*cell)) == str(on_mesh(*cell))
    assert closed(*cells[2]).value == periodic_density(xi, SPRING)


# ---------------------------------------------------------------------------
# estimate_whom


def test_estimate_whom_periodic_shape():
    xi = np.array([[1.1, 0.0], [0.0, 0.9]])
    est = estimate_whom(xi, [2, 4, 8], SPRING, PeriodicCell(m=0))
    assert len(est.per_h) == 3
    assert len(est.cauchy_gaps) == 2
    assert est.extrapolated == est.per_h[-1].value
    hs = [s.h for s in est.per_h]
    assert hs == sorted(hs, reverse=True)
    for s in est.per_h:
        assert s.n == 1 and s.stderr == 0.0


def test_richardson_needs_the_last_two_scales_to_refine():
    # scales given coarse to fine get the step; fine to coarse get None, and
    # extrapolated is then the last (coarsest) scale's value
    xi = np.array([[1.1, 0.0], [0.0, 0.9]])
    refining = estimate_whom(xi, [2, 4, 8], SPRING, PeriodicCell(m=0))
    assert refining.richardson is not None
    coarsening = estimate_whom(xi, [8, 4, 2], SPRING, PeriodicCell(m=0))
    assert [s.h for s in coarsening.per_h] == sorted(s.h for s in coarsening.per_h)
    assert coarsening.richardson is None
    assert coarsening.extrapolated == coarsening.per_h[-1].value


def test_estimate_whom_needs_two_scales():
    with pytest.raises(ValueError):
        estimate_whom(np.eye(2), [4], SPRING, PeriodicCell(m=0))


@pytest.mark.parametrize("count", [0, -1, 1.5])
def test_no_realizations_rejected_by_estimator_and_sweep(count):
    # the estimator used to build and then return NaN, the mean of no cells
    source = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    with pytest.raises(ValueError, match="n_realizations"):
        cell_estimator(source, SPRING, n_realizations=count)
    with pytest.raises(ValueError, match="n_realizations"):
        estimate_whom(np.eye(2), [0.3, 0.25], SPRING, source, n_realizations=count)
    with pytest.raises(ValueError, match="n_realizations"):
        sweep_runs(source, [0.3, 0.25], count)
    # a periodic source always has one realization
    periodic = PeriodicCell(m=2)
    one = cell_estimator(periodic, SPRING)(np.eye(2))
    assert cell_estimator(periodic, SPRING, n_realizations=count)(np.eye(2)) == one


def test_estimate_whom_stochastic_stats_and_determinism():
    xi = np.array([[1.2, 0.0], [0.0, 1.0]])
    src = StochasticCell(lattice=LATTICE_2D, h=1.0, dim=2)
    est1 = estimate_whom(xi, [0.25, 0.2], SPRING, src, n_realizations=4, seed=3)
    est2 = estimate_whom(xi, [0.25, 0.2], SPRING, src, n_realizations=4, seed=3)
    for a, b in zip(est1.per_h, est2.per_h):
        assert a.value == b.value
        assert a.stderr == b.stderr
        assert a.n == 4
        assert a.stderr > 0.0
        assert len(a.records) == 4


def test_estimate_whom_batches_agree_within_stderr():
    xi = np.array([[1.2, 0.0], [0.0, 1.0]])
    src = StochasticCell(lattice=LATTICE_2D, h=1.0, dim=2)
    a = estimate_whom(xi, [0.3, 0.2], SPRING, src, n_realizations=8, seed=101)
    b = estimate_whom(xi, [0.3, 0.2], SPRING, src, n_realizations=8, seed=202)
    sa, sb = a.per_h[-1], b.per_h[-1]
    combined = np.hypot(sa.stderr, sb.stderr)
    assert abs(sa.value - sb.value) <= 3.0 * combined


def test_estimate_whom_records_failures():
    # det(xi) < 0 with an uncut volumetric term fails in every cell
    model = EnergyModel(
        pair=PairPotential.quadratic_spring(1.0),
        vol=VolumetricParams(K=1.0, eta=0.0),
    )
    xi = np.diag([-1.0, 1.0])
    with pytest.raises(RuntimeError):
        estimate_whom(xi, [2, 4], model, PeriodicCell(m=0))


def test_sweep_same_estimates_probes_and_failures_for_every_parts():
    # every cell of the first xi is rejected (det 0.05 <= eta), so its sweep
    # and its probes fail; dealing the cells into 1 or 3 shares changes nothing
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                        vol=VolumetricParams(K=1.0, eta=0.1))
    xis = [np.diag([0.05, 1.0]), np.diag([1.1, 0.9])]
    frame, iso = random_rotations(2, 2, 1), random_rotations(2, 2, 2)
    results = [sweep(xis, [2, 4], model, PeriodicCell(m=0), frame=frame, iso=iso,
                     parts=parts, run=map) for parts in (1, 3)]
    for estimates, probes in results:
        assert isinstance(estimates[0], RuntimeError)
        assert "det(xi) must exceed" in probes["0"]["error"]
        assert set(probes["1"]) == {"frame_invariance_deviation", "isotropy_deviation"}
    summaries = [summary_dict(*result) for result in results]
    assert summaries[0] == summaries[1]
    assert [entry["xi_id"] for entry in summaries[0]["failed"]] == [0]
    assert [entry["xi_id"] for entry in summaries[0]["estimates"]] == [1]


def test_cell_problem_rejects_non_finite_xi():
    # a fully pinned cell would otherwise return the affine energy, NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            CellProblem(xi=np.diag([bad, 1.0]), source=PeriodicCell(m=2), model=SPRING)


NON_FINITE_PARAMETERS = {
    "f": (lambda v: EnergyModel(pair=SPRING.pair, f=v), "chains-per-volume factor f"),
    "stiffness": (PairPotential.quadratic_spring, "spring stiffness must be positive"),
    "k": (lambda v: ChainParams(k=v), "ChainParams requires k > 0"),
    "beta": (lambda v: ChainParams(beta=v), "ChainParams requires k > 0"),
    "n": (lambda v: ChainParams(n=v), "ChainParams requires k > 0"),
    "c": (lambda v: ChainParams(c=v), "ChainParams requires a finite c"),
    "K": (lambda v: VolumetricParams(K=v), "bulk modulus K must be positive"),
    "intensity": (lambda v: StochasticLatticeSpec("jittered-grid", v, 0.3, 1.0, 0),
                  "intensity must be positive"),
    "r_min": (lambda v: StochasticLatticeSpec("jittered-grid", 1.0, v, 1.0, 0),
              "r_min must be positive"),
    "R_cov": (lambda v: StochasticLatticeSpec("jittered-grid", 1.0, 0.3, v, 0),
              "R_cov must exceed r_min/2"),
}


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf], ids=["inf", "nan", "-inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_PARAMETERS))
def test_non_finite_parameters_rejected_on_both_routes(name, bad):
    # a periodic sweep cell is answered by periodic_density, which recorded
    # such a model's inf or NaN density as "ok", and a stochastic cell by a
    # mesh solve, which raised "energy is not finite"; both routes start at
    # these constructors, which reject the value with their usual message
    build, message = NON_FINITE_PARAMETERS[name]
    with pytest.raises(ValueError, match=message):
        build(bad)
    build(1.0)  # a finite value passes


def test_bad_restarts_and_xi_rejected_before_any_cell(monkeypatch):
    # a bad argument is the caller's ValueError, raised before any cell
    # runs, not a cell failure that reads as the solver's
    def no_build(source):
        raise AssertionError("a cell ran")

    patch_cell_mesh(monkeypatch, lambda build: no_build)
    xi, source = np.diag([1.1, 0.9]), PeriodicCell(m=2)
    for bad in (0, 2.5):  # 2.5 used to end in range's TypeError
        with pytest.raises(ValueError, match="restarts"):
            estimate_whom(xi, [2, 4], SPRING, source, restarts=bad)
        with pytest.raises(ValueError, match="restarts"):
            solve_cells([(xi, source, 0)], SPRING, restarts=bad)
        with pytest.raises(ValueError, match="restarts"):
            cell_estimator(source, SPRING, restarts=bad)
        with pytest.raises(ValueError, match="restarts"):
            CellProblem(xi=xi, source=source, model=SPRING, restarts=bad)
    for bad in (0, -1, 2.5):  # 0 and -1 used to solve nothing, then raise a KeyError
        with pytest.raises(ValueError, match="parts"):
            solve_cells([(xi, source, 0)], SPRING, parts=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_whom(np.diag([bad, 1.0]), [2, 4], SPRING, source)


def test_fractional_periodic_scale_rejected_before_any_cell(monkeypatch):
    # a periodic scale used to become m = int(scale): [2.5, 4.9] returned
    # the m = 2 and m = 4 estimates (h 0.35355 and 0.17678) with no error
    from polynet import homogenize

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    patch_cell_mesh(monkeypatch, lambda build: refuse)
    monkeypatch.setattr(homogenize, "periodic_density", refuse)
    with pytest.raises(ValueError, match="m must be an integer of at least 1, not 2.5"):
        estimate_whom(np.eye(2), [2.5, 4.9], SPRING, PeriodicCell(m=0))
    with pytest.raises(ValueError, match="not 4.0"):
        sweep([np.eye(2)], [2, 4.0], SPRING, PeriodicCell(m=0))


@pytest.mark.parametrize("bad", [-0.1, 0.0, math.nan, math.inf])
def test_bad_stochastic_scale_rejected_before_any_cell(monkeypatch, bad):
    # a bad h is the caller's ValueError before any cell runs, not every
    # cell's recorded failure at that scale
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    patch_cell_mesh(monkeypatch, lambda build: refuse)
    source = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    with pytest.raises(ValueError, match="h must be finite and positive"):
        sweep([np.eye(2)], [0.25, bad], SPRING, source)
    with pytest.raises(ValueError, match="h must be finite and positive"):
        cell_estimator(StochasticCell(LATTICE_2D, h=bad, dim=2), SPRING)


def _raise_outcome(outcome):
    """A solve_cells outcome that is an error, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# every entry point that takes a count, with the count's name; each
# accepted a bool as 1 or 0 (a one-restart PeriodicCell(m=True) cell had
# density 3.0)
COUNT_ENTRY_POINTS = [
    pytest.param("max_iters", lambda flag: MinimizeSettings(max_iters=flag),
                 id="MinimizeSettings"),
    pytest.param("m", lambda flag: periodic_mesh_2d(flag), id="periodic_mesh_2d"),
    pytest.param("restarts", lambda flag: CellProblem(
        xi=np.eye(2), source=PeriodicCell(m=2), model=SPRING, restarts=flag), id="CellProblem"),
    pytest.param("parts", lambda flag: solve_cells(
        [(np.eye(2), PeriodicCell(m=2), 0)], SPRING, parts=flag), id="solve_cells"),
    pytest.param("m", lambda flag: _raise_outcome(solve_cells(
        [(np.eye(2), PeriodicCell(m=flag), 0)], SPRING)(np.eye(2), PeriodicCell(m=flag), 0)),
        id="closed-form cell"),
    pytest.param("m", lambda flag: sweep([np.eye(2)], [flag, 2], SPRING, PeriodicCell(m=0)),
                 id="sweep scale"),
    pytest.param("n_realizations", lambda flag: sweep_runs(
        StochasticCell(LATTICE_2D, h=0.3, dim=2), [0.3], n_realizations=flag), id="sweep_runs"),
]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("name, call", COUNT_ENTRY_POINTS)
def test_counts_reject_bools(name, call, flag):
    with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
        call(flag)


def test_solve_cells_records_errors_and_shares_meshes(monkeypatch):
    # two restarts, so the periodic cells are solved on their meshes
    xi = np.diag([1.1, 0.9])
    m4, bad_dim, bad_m = PeriodicCell(m=4), PeriodicCell(m=2, dim=4), PeriodicCell(m=2.5)
    expected = solve_cell_problem(CellProblem(xi=xi, source=m4, model=SPRING))
    built = count_cell_meshes(monkeypatch)
    nan_xi, xi2 = np.diag([np.nan, 1.0]), np.diag([1.2, 0.8])
    cells = [(nan_xi, m4, 0), (xi, m4, 0), (xi, m4, 1), (xi, bad_dim, 0), (xi2, bad_dim, 1),
             (xi, bad_m, 0)]
    outcome = solve_cells(cells, SPRING, restarts=2)
    failed = outcome(nan_xi, m4, 0)
    assert isinstance(failed, ValueError) and "finite" in str(failed)
    for seed in (0, 1):
        assert abs(outcome(xi, m4, seed).value - expected.value) <= 1e-12 * expected.value
    # a failed build is kept for the source's later cells, not retried
    assert outcome(xi, bad_dim, 0) is outcome(xi2, bad_dim, 1)
    assert isinstance(outcome(xi, bad_dim, 0), ValueError)
    # the builder's ValueError, not an IndexError that would end the run
    assert "m must be an integer" in str(outcome(xi, bad_m, 0))
    assert built == [m4, bad_dim, bad_m]
    # with one restart the same cells are answered in closed form, with the
    # same errors and no mesh
    built.clear()
    closed = solve_cells(cells, SPRING)
    assert built == []
    assert closed(xi, m4, 0).value == closed(xi, m4, 1).value
    assert abs(closed(xi, m4, 0).value - expected.value) <= 1e-14 * expected.value
    for cell in (cells[0], *cells[3:]):
        assert type(closed(*cell)) is type(outcome(*cell))
        assert str(closed(*cell)) == str(outcome(*cell))


def test_solve_cells_same_outcomes_for_every_parts(monkeypatch):
    from polynet import homogenize

    solved = []
    solve = homogenize.solve_cell_problem

    def counting_solve(problem, mesh=None):
        solved.append(problem)
        return solve(problem, mesh)

    monkeypatch.setattr(homogenize, "solve_cell_problem", counting_solve)
    runs = [run for scale_runs in sweep_runs(StochasticCell(LATTICE_2D, h=0.3, dim=2),
                                             [0.3, 0.25], 2, seed=5)
            for run in scale_runs]
    xis = [np.diag([1.1, 0.9]), np.array([[1.0, 0.1], [0.0, 1.0]])]
    distinct = [(xi, source, seed) for xi in xis for source, seed in runs]
    cells = [*distinct, distinct[3]]
    outcomes = []
    for parts in (1, 2, 3, 5):
        solved.clear()
        shares, outcome = spy_shares(cells, parts)
        outcomes.append([outcome(*cell) for cell in distinct])
        assert len(solved) == len(distinct)  # the duplicate is solved once
        assert len(shares) <= parts
        for source, _ in runs:
            mine = [share for share in shares if source in held(share)]
            # each source holds 2 of the 8 cells: split only beyond 1/parts
            assert len(mine) <= min(len(xis), math.ceil(parts * len(xis) / len(distinct)))
        for share in shares:  # single-source cell lists, a source at most once
            assert all(len({cell[1] for cell in group}) == 1 for group in share)
            assert len(held(share)) == len(share)
        assert sum(len(group) for share in shares for group in share) == len(distinct)
    assert all(isinstance(sol, MinimizeResult) for sol in outcomes[0])
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]


def test_cell_results_carry_no_positions():
    # a cell keeps and pickles no positions: neither the best of two
    # restarts nor any outcome that a pool of two processes sends back
    from polynet import cli

    xi = np.diag([1.1, 0.9])
    source = StochasticCell(LATTICE_2D, h=0.1, dim=2)
    best = solve_cell_problem(CellProblem(xi=xi, source=source, model=SPRING, restarts=2))
    assert best.state is None and best.n_free > 0 and best.evaluations > best.iterations > 0
    cells = [(xi + 0.05 * k * np.eye(2), source.at_scale(h), 0)
             for k in range(2) for h in (0.15, 0.1)]
    cells.append((xi, PeriodicCell(m=4), 0))  # answered in closed form
    outcome = solve_cells(cells, SPRING, parts=2, run=cli._run_shares)
    assert all(isinstance(outcome(*cell), MinimizeResult) for cell in cells)
    assert all(outcome(*cell).state is None for cell in cells)
    assert outcome(*cells[-1]).evaluations == 0


def spy_shares(cells, parts, restarts=1):
    """solve_cells' shares and outcome for springs at the given parts."""
    shares = []

    def spy(solve_share, given):
        shares.extend(given)
        return map(solve_share, given)

    return shares, solve_cells(cells, SPRING, restarts, parts=parts, run=spy)


def held(share):
    """The sources of a share's cell lists, in order."""
    return [group[0][1] for group in share]


def test_solve_cells_splits_only_a_dominant_source():
    # m 4 holds 10 of the 14 cells, m 2 and m 3 two each; with two restarts
    # the periodic cells are dealt, not answered in closed form
    xis = [np.diag([1.0 + 0.05 * k, 1.0]) for k in range(10)]
    small = [(xi, PeriodicCell(m=m), 0) for m in (2, 3) for xi in xis[:2]]
    cells = [*small, *((xi, PeriodicCell(m=4), 0) for xi in xis)]
    position = {id(cell): k for k, cell in enumerate(cells)}
    _, whole = spy_shares(cells, 1, restarts=2)
    for parts in (2, 3):
        shares, outcome = spy_shares(cells, parts, restarts=2)
        groups = [group for share in shares for group in share]
        # the small sources stay whole (ceil(parts * 2 / 14) = 1 chunk), the
        # dominant one is cut into ceil(parts * 10 / 14) = parts contiguous
        # chunks, each dealt to its own share
        assert small[:2] in groups and small[2:] in groups
        dominant = [[position[id(cell)] for cell in group] for group in groups
                    if group[0][1] == PeriodicCell(m=4)]
        assert len(dominant) == parts
        assert all(run == list(range(run[0], run[0] + len(run))) for run in dominant)
        assert sorted(k for run in dominant for k in run) == list(range(4, 14))
        assert [outcome(*cell) for cell in cells] == [whole(*cell) for cell in cells]


def test_solve_cells_cuts_a_dominant_stochastic_source():
    # sweep's job list for 1 realization at h 0.3 and 0.25, 2 xi and 2 + 2
    # probe rotations: the finest source holds 2 x (1 + 2 + 2) of the 12
    # cells, more than 1/2, so parts=2 cuts it into 2 chunks of 5
    (coarse,), (finest,) = sweep_runs(StochasticCell(LATTICE_2D, h=0.3, dim=2), [0.3, 0.25],
                                      1, seed=11)
    xis = [np.diag([1.2, 1.0]), np.array([[1.0, 0.1], [0.0, 0.9]])]
    rotations = random_rotations(2, 2, 3)
    cells = [(xi, *run) for xi in xis for run in (coarse, finest)]
    cells += [(product, *finest) for xi in xis for rot in rotations
              for product in (rot @ xi, xi @ rot)]
    _, whole = spy_shares(cells, 1)
    shares, outcome = spy_shares(cells, 2)
    assert [held(share) for share in shares] == [[finest[0], coarse[0]], [finest[0]]]
    assert [len(group) for share in shares for group in share] == [5, 2, 5]
    assert [outcome(*cell) for cell in cells] == [whole(*cell) for cell in cells]


# each source's cell count, and the shares solve_cells deals them into at
# the given parts, as (source index, cells) lists: chunks are dealt longest
# first, each to the share with the fewest cells (ties to the earlier share);
# two restarts keep the periodic cells off the closed form
DEALS = [
    ((3, 1, 2, 4, 1), 2, [[(3, 4), (1, 1), (4, 1)], [(0, 3), (2, 2)]]),
    # source 3 holds 4 of the 11 cells, more than 1/3: two chunks of 2
    ((3, 1, 2, 4, 1), 3, [[(0, 3), (4, 1)], [(2, 2), (3, 2)], [(3, 2), (1, 1)]]),
    # source 1's two chunks of 2 both go to share 1, which holds it once
    ((3, 4), 2, [[(0, 3)], [(1, 4)]]),
]


@pytest.mark.parametrize("counts, parts, expected", DEALS,
                         ids=["whole-sources", "a-split-source", "a-merged-source"])
def test_solve_cells_deals_shares(counts, parts, expected):
    sources = [PeriodicCell(m=m) for m in range(2, 2 + len(counts))]
    cells = [(np.diag([1.0 + 0.01 * k, 1.0]), source, 0)
             for source, count in zip(sources, counts) for k in range(count)]
    for _ in range(2):  # every run deals them alike
        shares, outcome = spy_shares(cells, parts, restarts=2)
        assert [[(sources.index(group[0][1]), len(group)) for group in share]
                for share in shares] == expected
        assert all(isinstance(outcome(*cell), MinimizeResult) for cell in cells)


# ---------------------------------------------------------------------------
# probes


def test_frame_invariance_identity_rotation_exact_zero():
    est = cell_estimator(PeriodicCell(m=4), SPRING)
    dev = frame_invariance_probe(est, np.diag([1.1, 0.9]), [np.eye(2)])
    assert dev == 0.0


def test_frame_invariance_periodic_quadratic():
    est = cell_estimator(PeriodicCell(m=4), SPRING)
    dev = frame_invariance_probe(est, np.diag([1.1, 0.9]), random_rotations(2, 8, 0))
    assert dev <= 1e-6


def test_isotropy_probe_detects_lattice_anisotropy():
    est = cell_estimator(PeriodicCell(m=4), SPRING)
    dev = isotropy_probe(est, np.diag([1.2, 1.0]), random_rotations(2, 8, 0))
    assert dev > 1e-2


def test_isotropy_probe_identity_rotation_zero():
    est = cell_estimator(PeriodicCell(m=4), SPRING)
    assert isotropy_probe(est, np.diag([1.2, 1.0]), [np.eye(2)]) == 0.0


def test_isotropy_probe_synthetic_monte_carlo_estimator():
    # an isotropic-by-construction energy: average of a single-spring energy
    # over uniformly random directions; deviation shrinks with sample count
    def direction_estimator(count):
        rng = np.random.default_rng(99)
        thetas = rng.uniform(0.0, 2.0 * np.pi, count)
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)

        def estimator(xi):
            stretches = np.linalg.norm(dirs @ np.asarray(xi).T, axis=1)
            return float(np.mean(stretches**2))

        return estimator

    xi = np.diag([1.3, 0.9])
    dev_small = isotropy_probe(direction_estimator(20), xi, random_rotations(2, 6, 5))
    dev_large = isotropy_probe(direction_estimator(5000), xi, random_rotations(2, 6, 5))
    assert dev_large < dev_small
    assert dev_large < 0.02


def test_random_rotation_is_orthogonal():
    for dim in (2, 3):
        for r in random_rotations(dim, 4, 0):
            np.testing.assert_allclose(r @ r.T, np.eye(dim), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def _rotation_loop(dim, count, seed):
    """random_rotations one rotation at a time, as it once was drawn."""
    rng, rotations = np.random.default_rng(seed), []
    for _ in range(count):
        if dim == 2:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            rotations.append(np.array([[c, -s], [s, c]]))
            continue
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        rotations.append(q)
    return rotations


@pytest.mark.parametrize("dim", [2, 3])
def test_random_rotations_batch_equals_one_at_a_time(dim):
    for seed in (0, 7):
        longest = random_rotations(dim, 8, seed)
        for count in range(9):
            batch = random_rotations(dim, count, seed)
            loop = _rotation_loop(dim, count, seed)
            assert len(batch) == count
            assert all(a.shape == (dim, dim) and a.tobytes() == b.tobytes()
                       for a, b in zip(batch, loop))
            # a shorter list is a prefix of a longer one
            assert all(a.tobytes() == b.tobytes() for a, b in zip(batch, longest))
    with pytest.raises(ValueError):
        random_rotations(4, 1, 0)


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_direction_and_frozen_ratio(monkeypatch):
    # frozen pre-build oracle: stiffnesses 4 f K and 2 f K, ratio exactly 2;
    # the six spring densities come from one stacked call
    from polynet import homogenize

    calls = []
    density = homogenize.periodic_density

    def counted(*args):
        calls.append(args)
        return density(*args)

    monkeypatch.setattr(homogenize, "periodic_density", counted)
    res = anisotropy_counterexample(stiffness=1.0, f=1.0)
    assert [np.shape(args[0]) for args in calls] == [(2, 3, 2, 2)]
    assert res.stiffness_diag > res.stiffness_antidiag * (1.0 + 1e-4)
    assert abs(res.stiffness_diag - 4.0) <= 1e-12 * 4.0
    assert abs(res.stiffness_antidiag - 2.0) <= 1e-12 * 2.0
    assert abs(res.ratio - 2.0) <= 1e-12


def test_counterexample_scales_with_constants():
    res = anisotropy_counterexample(stiffness=2.0, f=3.0)
    assert abs(res.stiffness_diag - 6.0 * 4.0) <= 1e-12 * 24.0
    assert abs(res.stiffness_antidiag - 6.0 * 2.0) <= 1e-12 * 12.0
    assert abs(res.ratio - 2.0) <= 1e-12


def test_counterexample_mirror_swap():
    # the stiffness along d is d^2/dt^2 W(I + t d ox d) = 2 W(d ox d) exactly;
    # W is quadratic, so a second difference with unit step gives it too
    eye = np.eye(2)
    results = {}
    for diagonal, ratio in (("nw", 2.0), ("ne", 0.5)):
        res = anisotropy_counterexample(diagonal=diagonal)
        for got, d in ((res.stiffness_diag, [-1.0, 1.0]),
                       (res.stiffness_antidiag, [1.0, 1.0])):
            dd = np.outer(d, d) / 2.0
            w = [single_cell_oracle_2d(eye + t * dd, diagonal=diagonal)
                 for t in (-1.0, 0.0, 1.0)]
            assert abs(got - 2.0 * single_cell_oracle_2d(dd, diagonal=diagonal)) <= 1e-12 * got
            assert abs(got - (w[0] - 2.0 * w[1] + w[2])) <= 1e-12 * got
        assert abs(res.ratio - ratio) <= 1e-12
        results[diagonal] = res
    nw, ne = results["nw"], results["ne"]
    assert abs(nw.stiffness_diag - ne.stiffness_antidiag) <= 1e-12
    assert abs(nw.stiffness_antidiag - ne.stiffness_diag) <= 1e-12


# ---------------------------------------------------------------------------
# rank-one convexity


def test_rank_one_convexity_quadratic_case():
    rng = np.random.default_rng(2)
    xi = np.eye(2)
    for _ in range(5):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        report = rank_one_convexity_sample(
            partial(periodic_density, model=SPRING), xi, a, b, np.linspace(-0.3, 0.3, 9)
        )
        assert report.convex
        assert report.worst_violation <= 1e-10


def test_rank_one_trivial_grid():
    report = rank_one_convexity_sample(
        partial(periodic_density, model=SPRING), np.eye(2), [1.0, 0.0], [0.0, 1.0], [0.0]
    )
    assert report.convex
    assert report.chord_excess.size == 0
    with pytest.raises(ValueError):
        rank_one_convexity_sample(
            partial(periodic_density, model=SPRING), np.eye(2), [0.0, 0.0], [1.0, 0.0],
            [0.0, 0.1, 0.2]
        )


def test_rank_one_detects_nonconvexity():
    # double-well along t is flagged
    def bad_estimator(xi):
        t = xi[0, 1]
        return (t**2 - 0.01) ** 2

    report = rank_one_convexity_sample(
        bad_estimator, np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0],
        np.linspace(-0.2, 0.2, 21),
    )
    assert not report.convex
    assert report.worst_violation > 0.0


class RecordingPotential:
    """A spring that records the radii it is evaluated at."""

    def __init__(self):
        self.calls = []

    def energy(self, r):
        self.calls.append(r)
        return PairPotential.quadratic_spring(1.0).energy(r)


def _growth(bounds=(8.0, 1.0, 1.0), r_max=1.0, samples=512):
    potential = RecordingPotential()
    try:
        check_growth_condition(potential, GrowthBounds(*bounds), r_max, samples)
    finally:
        assert potential.calls == []


def _rank_one(xi=np.eye(2), t_grid=(0.0, 0.1, 0.2), noise_floor=0.0, a=(1.0, 0.0),
              b=(0.0, 1.0)):
    calls = []

    def estimator(xi):
        calls.append(xi)
        return periodic_density(xi, SPRING)

    try:
        rank_one_convexity_sample(estimator, xi, a, b, t_grid, noise_floor)
    finally:
        assert calls == []


BAD_DIAGNOSTIC_INPUTS = [
    (partial(_growth, bounds=(math.inf, 1.0, 1.0)), "p must exceed 1 and be finite"),
    (partial(_growth, bounds=(math.nan, 1.0, 1.0)), "growth exponent p must exceed 1"),
    (partial(_growth, bounds=(8.0, 1.0, math.inf)), "0 < c_lo <= c_hi < inf"),
    (partial(_growth, bounds=(8.0, math.inf, math.inf)), "0 < c_lo <= c_hi < inf"),
    (partial(_growth, r_max=math.inf), "r_max must be positive and finite"),
    (partial(_growth, r_max=math.nan), "r_max must be positive"),
    (partial(_growth, samples=2.5), "as an integer, not 2.5"),
    (partial(_growth, samples=1), "need at least 2 samples"),
    (partial(_rank_one, noise_floor=math.nan), "noise_floor must be finite"),
    (partial(_rank_one, noise_floor=math.inf), "noise_floor must be finite"),
    (partial(_rank_one, t_grid=[0.0, math.nan, 0.2]), "t_grid and noise_floor must be finite"),
    (partial(_rank_one, xi=np.diag([math.inf, 1.0])), "t_grid and noise_floor must be finite"),
    (partial(_rank_one, a=(math.inf, 0.0)), "t_grid and noise_floor must be finite"),
    (partial(_rank_one, a=(0.0, 0.0)), "rank-one directions must be nonzero"),
    # a repeated t made the chord 0/0: a NaN excess that read as non-convex
    (partial(_rank_one, t_grid=[0.0, 0.1, 0.1, 0.1, 0.2]), "t_grid values must be distinct"),
    (partial(_rank_one, t_grid=[0.2, 0.0, 0.1, -0.0]), "t_grid values must be distinct"),
    # a t_grid that is not 1-D, or a direction whose length is not xi's side
    (partial(_rank_one, t_grid=0.1), "t_grid must be one-dimensional"),
    (partial(_rank_one, t_grid=[[0.0, 0.1], [0.2, 0.3]]), "t_grid must be one-dimensional"),
    (partial(_rank_one, a=(1.0, 0.0, 0.0)), "rank-one directions must have the length of xi's"),
    (partial(_rank_one, b=[[0.0, 1.0]]), "rank-one directions must have the length of xi's"),
    (partial(_rank_one, xi=np.eye(3)), "rank-one directions must have the length of xi's"),
]


@pytest.mark.parametrize("call, message", BAD_DIAGNOSTIC_INPUTS)
def test_diagnostics_reject_bad_inputs_before_evaluating(call, message):
    # a ValueError with its own message, before the potential or the
    # estimator sees any point (and so without a numpy warning)
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# serialization


def test_csv_of_failed_sweeps_only_rejected(tmp_path):
    path = tmp_path / "est.csv"
    with pytest.raises(ValueError, match="nothing to write"):
        write_estimates_csv(path, [ValueError("sweep failed"), RuntimeError("too")])
    assert not path.exists()


def test_csv_and_summary_outputs(tmp_path):
    xi = np.array([[1.1, 0.0], [0.0, 0.9]])
    est = estimate_whom(xi, [2, 4], SPRING, PeriodicCell(m=0))
    path = tmp_path / "est.csv"
    write_estimates_csv(path, [est])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3  # header + one row per scale
    assert lines[0].startswith("xi_id,xi00")

    src = StochasticCell(lattice=LATTICE_2D, h=1.0, dim=2)
    est_s = estimate_whom(xi, [0.3, 0.2], SPRING, src, n_realizations=4, seed=1)
    write_estimates_csv(path, [est_s])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 4

    summary = summary_dict([est_s], probes={"0": {"isotropy_deviation": 0.1}})
    assert len(summary["estimates"][0]["cauchy_gaps"]) == 1
    assert summary["estimates"][0]["per_h"][0]["n"] == 4
    assert summary["probes"]["0"]["isotropy_deviation"] == 0.1


@pytest.mark.parametrize("dim, diagonal", [(2, "nw"), (2, "ne"), (3, "nw")])
def test_periodic_cell_h_is_its_mesh_h(dim, diagonal):
    for m in range(1, 13):
        source = PeriodicCell(m, dim, diagonal)
        mesh = source.mesh()
        assert source.h == mesh.h
        assert source.layer_depth == 2.0 * mesh.h


@pytest.mark.parametrize("dim, restarts", [(2, 1), (2, 2), (3, 1)])
def test_periodic_sweep_csv_h_is_the_cell_h(tmp_path, dim, restarts):
    # one restart answers in closed form, two solve the m-cell mesh
    m_list = [1, 2, 3, 5]
    est = estimate_whom(np.eye(dim), m_list, SPRING, PeriodicCell(m=0, dim=dim),
                        restarts=restarts)
    path = tmp_path / "est.csv"
    write_estimates_csv(path, [est])
    with open(path, newline="") as fh:
        column = [row["h"] for row in csv.DictReader(fh)]
    assert column == [f"{PeriodicCell(m, dim).h:.17g}" for m in m_list]
    assert [s.h for s in est.per_h] == [PeriodicCell(m, dim).h for m in m_list]


def _first_realization_solves(source, xi, seed):
    """The first realization of an estimator's batch has free vertices, so
    the estimator runs minimize and does not only sum the affine energy."""
    cell, run_seed = sweep_runs(source, [source.h], 1, seed)[0][0]
    problem = CellProblem(xi=xi, source=cell, model=SPRING, seed=run_seed)
    assert solve_cell_problem(problem).n_free > 0


def test_stochastic_estimator_common_random_numbers():
    source = StochasticCell(LATTICE_2D, h=0.1, dim=2)
    est = cell_estimator(source, SPRING, n_realizations=2, seed=5)
    xi = np.array([[1.2, 0.0], [0.0, 1.0]])
    _first_realization_solves(source, xi, seed=5)
    rot = rotation_2d(0.3)
    v1 = est(xi)
    v2 = est(xi)
    assert v1 == v2  # frozen realization batch
    dev = abs(est(xi @ rot) - v1) / abs(v1)
    assert dev < 0.2


def test_cell_estimator_equals_solve_cell_problem():
    from dataclasses import replace

    from polynet.homogenize import _realization_seed

    # a compressed Langevin+vol cell whose restarts end in seed-dependent
    # last bits, so the problem seed of the periodic estimator is pinned too
    chain_vol = EnergyModel(pair=PairPotential.langevin_chain(),
                            vol=VolumetricParams(K=1.0, eta=0.1))
    squeeze = np.diag([0.4, 0.5])
    periodic = PeriodicCell(m=4)
    expected = solve_cell_problem(
        CellProblem(xi=squeeze, source=periodic, model=chain_vol, restarts=3, seed=3)
    ).value
    assert cell_estimator(periodic, chain_vol, seed=3, restarts=3)(squeeze) == expected

    xi = np.array([[1.1, 0.05], [0.0, 0.95]])

    stochastic = StochasticCell(LATTICE_2D, h=0.1, dim=2)
    seeds = [_realization_seed(5, 0, r) for r in range(3)]
    results = [
        solve_cell_problem(
            CellProblem(
                xi=xi,
                source=replace(stochastic, lattice=replace(LATTICE_2D, seed=s)),
                model=SPRING,
                seed=s,
            )
        )
        for s in seeds
    ]
    assert all(result.n_free > 0 for result in results)
    estimator = cell_estimator(stochastic, SPRING, n_realizations=3, seed=5)
    assert estimator(xi) == float(np.mean([result.value for result in results]))


def test_cell_estimator_builds_each_mesh_once(monkeypatch):
    built = count_cell_meshes(monkeypatch)
    source = StochasticCell(LATTICE_2D, h=0.1, dim=2)
    xi = np.diag([1.1, 0.9])
    xis = [xi, rotation_2d(0.3) @ xi, xi @ rotation_2d(0.7), np.eye(2), xi]
    estimator = cell_estimator(source, SPRING, n_realizations=2, seed=5)
    values = [estimator(x) for x in xis]
    assert len(built) == 2 and built[0] != built[1]
    # the kept meshes give the bits of a fresh estimator's fresh meshes
    fresh = [cell_estimator(source, SPRING, n_realizations=2, seed=5)(x) for x in xis]
    assert values == fresh
    assert len(built) == 2 + 2 * len(xis)
    _first_realization_solves(source, xi, seed=5)


def test_at_scale_sets_scale_and_reseeds():
    assert PeriodicCell(m=2, dim=3).at_scale(8) == PeriodicCell(m=8, dim=3)
    stochastic = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    assert stochastic.at_scale(0.1) == StochasticCell(LATTICE_2D, h=0.1, dim=2)
    reseeded = stochastic.at_scale(0.1, lattice_seed=9)
    assert reseeded.lattice.seed == 9 and reseeded.h == 0.1
    assert PeriodicCell(m=2).at_scale(4, lattice_seed=9) == PeriodicCell(m=4)
