import itertools
import math
from functools import partial

import numpy as np
import pytest

from helpers import rotation_2d, single_cell_oracle_2d, spring_oracle
from polynet.assembly import EnergyModel
from polynet.chains import ChainParams, PairPotential, chain_energy
from polynet.homogenize import (
    CellProblem,
    CellSolution,
    PeriodicCell,
    StochasticCell,
    anisotropy_counterexample,
    at_scale,
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
    # at m = 2 the 2h layer swallows every vertex; the admissible set is the
    # affine state alone and its energy is returned
    problem = CellProblem(xi=np.eye(2), source=PeriodicCell(m=2), model=SPRING)
    sol = solve_cell_problem(problem)
    assert sol.n_free == 0
    assert sol.value == 3.0


def test_cell_density_calibrated_chain_rest_energy():
    # choose c so the chain energy vanishes at stretch 1; the identity cell
    # problem then reports zero density
    base = chain_energy(1.0, ChainParams(k=1.0, beta=1.0, c=0.0, n=1.0))
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
        cell_estimator(source, model)(xi)
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
        assert [(r.scale, r.value, r.status, r.error) for s in alone.per_h for r in s.records] \
            == [(r.scale, r.value, r.status, r.error) for s in mixed[k].per_h for r in s.records]
    assert isinstance(mixed[1], RuntimeError)


def test_sweep_rejects_wrong_shapes_before_any_cell(monkeypatch):
    # a 3x3 xi or rotation in a 2D sweep used to become a cell failure with
    # numpy's matmul message (periodic), fail in apply_bc after building a
    # mesh (stochastic), or escape from the probe as a bare numpy error
    from polynet import homogenize

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(homogenize, "build_cell_mesh", refuse)
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


def test_bad_restarts_and_xi_rejected_before_any_cell(monkeypatch):
    # a bad argument is the caller's ValueError, raised before any cell
    # runs, not a cell failure that reads as the solver's
    from polynet import homogenize

    def no_build(source):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(homogenize, "build_cell_mesh", no_build)
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


def test_solve_cells_records_errors_and_shares_meshes(monkeypatch):
    # two restarts, so the periodic cells are solved on their meshes
    from polynet import homogenize

    xi = np.diag([1.1, 0.9])
    m4, bad_dim, bad_m = PeriodicCell(m=4), PeriodicCell(m=2, dim=4), PeriodicCell(m=2.5)
    expected = solve_cell_problem(CellProblem(xi=xi, source=m4, model=SPRING))
    built = []
    build = homogenize.build_cell_mesh

    def counting_build(source):
        built.append(source)
        return build(source)

    monkeypatch.setattr(homogenize, "build_cell_mesh", counting_build)
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
    assert all(isinstance(sol, CellSolution) for sol in outcomes[0])
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]


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
        assert all(isinstance(outcome(*cell), CellSolution) for cell in cells)


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


# ---------------------------------------------------------------------------
# serialization


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


def test_stochastic_estimator_common_random_numbers():
    est = cell_estimator(
        StochasticCell(LATTICE_2D, h=0.25, dim=2), SPRING, n_realizations=2, seed=5
    )
    xi = np.array([[1.2, 0.0], [0.0, 1.0]])
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

    stochastic = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    seeds = [_realization_seed(5, 0, r) for r in range(3)]
    values = [
        solve_cell_problem(
            CellProblem(
                xi=xi,
                source=replace(stochastic, lattice=replace(LATTICE_2D, seed=s)),
                model=SPRING,
                seed=s,
            )
        ).value
        for s in seeds
    ]
    estimator = cell_estimator(stochastic, SPRING, n_realizations=3, seed=5)
    assert estimator(xi) == float(np.mean(values))


def test_cell_estimator_builds_each_mesh_once(monkeypatch):
    from polynet import homogenize

    built = []
    build = homogenize.build_cell_mesh

    def counting_build(source):
        built.append(source)
        return build(source)

    monkeypatch.setattr(homogenize, "build_cell_mesh", counting_build)
    source = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    xi = np.diag([1.1, 0.9])
    xis = [xi, rotation_2d(0.3) @ xi, xi @ rotation_2d(0.7), np.eye(2), xi]
    estimator = cell_estimator(source, SPRING, n_realizations=2, seed=5)
    values = [estimator(x) for x in xis]
    assert len(built) == 2 and built[0] != built[1]
    # the kept meshes give the bits of a fresh estimator's fresh meshes
    fresh = [cell_estimator(source, SPRING, n_realizations=2, seed=5)(x) for x in xis]
    assert values == fresh
    assert len(built) == 2 + 2 * len(xis)


def test_at_scale_sets_scale_and_reseeds():
    assert at_scale(PeriodicCell(m=2, dim=3), 8) == PeriodicCell(m=8, dim=3)
    stochastic = StochasticCell(LATTICE_2D, h=0.25, dim=2)
    assert at_scale(stochastic, 0.1) == StochasticCell(LATTICE_2D, h=0.1, dim=2)
    reseeded = at_scale(stochastic, 0.1, lattice_seed=9)
    assert reseeded.lattice.seed == 9 and reseeded.h == 0.1
    assert at_scale(PeriodicCell(m=2), 4, lattice_seed=9) == PeriodicCell(m=4)
