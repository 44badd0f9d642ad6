"""Cell problems and estimators for the homogenized energy density.

The homogenized density at a macroscopic gradient xi is estimated by
pinning a boundary layer of the unit box to the affine map xi @ x,
minimizing the network energy over the interior, and reading off the
minimal energy per unit volume.  Periodic meshes use a layer of depth 2h;
stochastic meshes use 2*h*R with R the lattice covering radius, and the
estimate is averaged over independent lattice realizations.  The periodic
lattices have one vertex per cell and their affine state is critical at
every m, so a periodic cell's density is periodic_density, the affine
energy of the m = 1 mesh (the lattice's Cauchy-Born energy), which takes a
stack of gradients at once: sweeps answer all periodic cells of a lattice
with one restart by one such call, without a mesh, while
solve_cell_problem still solves the m-cell mesh.  Probes for frame
invariance, isotropy and sampled rank-one convexity operate on any scalar
estimator xi -> W(xi).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .assembly import (BoundaryCondition, EnergyModel, affine_energy, affine_positions,
                       check_gradient_shape)
from .chains import PairPotential
from .meshing import (
    Mesh,
    StochasticLatticeSpec,
    boundary_layer,
    build_stochastic_mesh,
    check_count,
    periodic_mesh_2d,
    periodic_mesh_3d,
)
from .optim import DEFAULT_SETTINGS, MinimizeSettings, minimize


@dataclass(frozen=True)
class PeriodicCell:
    """Periodic mesh source: m cells per side of the unit box."""

    m: int
    dim: int = 2
    diagonal: str = "nw"


@dataclass(frozen=True)
class StochasticCell:
    """Stochastic mesh source: lattice spec rescaled by h into the unit box."""

    lattice: StochasticLatticeSpec
    h: float
    dim: int = 3


@dataclass(frozen=True)
class CellProblem:
    """One cell problem: macroscopic gradient, mesh source, model, protocol.

    The pinned layer has the default depth (2h periodic, 2hR stochastic).
    restarts is the total number of minimization runs; the first starts from
    the exact affine state, later ones from seeded perturbations of it with
    standard deviation 0.01 h.
    """

    xi: np.ndarray
    source: PeriodicCell | StochasticCell
    model: EnergyModel
    restarts: int = 1
    seed: int = 0
    settings: MinimizeSettings = DEFAULT_SETTINGS

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        error = _xi_errors(self.xi[None], self.model)[0]
        if error is not None:
            raise error
        check_count(self.restarts, "restarts")


def _xi_errors(xi: np.ndarray, model: EnergyModel) -> list:
    """CellProblem's checks of each gradient of the stack xi, in order: None
    for a valid one, else the ValueError it raises.  With a volumetric term
    a finite non-square gradient raises np.linalg's error for the stack."""
    finite = np.isfinite(xi).all(axis=tuple(range(1, xi.ndim)))
    low = np.zeros(len(xi), dtype=bool)
    if model.vol is not None and finite.any():
        low[finite] = np.linalg.det(xi[finite]) <= model.vol.eta
    return [ValueError("xi must be finite") if not ok else
            ValueError("det(xi) must exceed the volumetric cut-off for cell problems")
            if below else None for ok, below in zip(finite, low)]


@dataclass
class CellSolution:
    value: float  # energy density (energy / vol(unit box))
    grad_norm: float
    iterations: int
    converged: bool
    n_free: int
    h: float


def build_cell_mesh(source: PeriodicCell | StochasticCell) -> Mesh:
    if isinstance(source, PeriodicCell):
        return _periodic_mesh(source.m, source.dim, source.diagonal)
    return build_stochastic_mesh(source.lattice, source.h, source.dim)


def _periodic_mesh(m: int, dim: int, diagonal: str) -> Mesh:
    if dim not in (2, 3):
        raise ValueError("periodic sources support dim 2 and 3 only")
    return periodic_mesh_2d(m, diagonal) if dim == 2 else periodic_mesh_3d(m)


@cache
def _unit_cell(dim: int, diagonal: str) -> Mesh:
    """The m = 1 periodic mesh, built once per (dim, diagonal) and shared by
    every caller; evaluations add only their own caches to it."""
    return _periodic_mesh(1, dim, diagonal)


def periodic_density(xi, model: EnergyModel, dim: int = 2, diagonal: str = "nw"):
    """Energy density of the periodic lattice at the macroscopic gradient xi.

    The lattice has one vertex per cell and its affine state is critical at
    every m, so this is every periodic cell problem's density with one
    restart: the affine energy of the m = 1 mesh, f sum_k (c_k / c)
    W(|xi v_k| / |v_k|) + w(det xi), c_k the corner pairs along the lattice
    direction v_k among the c elements of one cell (the lattice's
    Cauchy-Born energy).  A stack xi (..., dim, dim) gives the array of its
    densities from one pass over the m = 1 mesh's edges, each equal to its
    own call's bit for bit; a single xi is a stack of one and gives a float.
    It raises what affine_energy raises on that mesh, for the whole stack.
    """
    return affine_energy(_unit_cell(dim, diagonal), xi, model)


def default_layer_depth(source: PeriodicCell | StochasticCell, mesh: Mesh) -> float:
    if isinstance(source, PeriodicCell):
        return 2.0 * mesh.h
    return 2.0 * source.h * source.lattice.R_cov


def at_scale(source: PeriodicCell | StochasticCell, scale, lattice_seed: int | None = None):
    """source with m (periodic) or h (stochastic) set to scale; a stochastic
    lattice is reseeded when lattice_seed is given."""
    if isinstance(source, PeriodicCell):
        return replace(source, m=int(scale))
    lattice = source.lattice
    if lattice_seed is not None:
        lattice = replace(lattice, seed=lattice_seed)
    return replace(source, h=float(scale), lattice=lattice)


def solve_cell_problem(problem: CellProblem, mesh: Mesh | None = None) -> CellSolution:
    """Minimize over the interior with the affine layer pinned.

    mesh is the source's mesh when the caller has built it already (see
    solve_cells); by default it is built here.  When the layer
    swallows every vertex the admissible set is the single affine state and
    its energy is returned directly (this happens for the coarsest meshes,
    where 2h exceeds the inradius).  The first run starts from the affine
    state (minimize's default), later ones from perturbations of it.
    """
    if mesh is None:
        mesh = build_cell_mesh(problem.source)
    depth = default_layer_depth(problem.source, mesh)
    layer = boundary_layer(mesh, depth)
    if layer.size == mesh.num_vertices:
        value = affine_energy(mesh, problem.xi, problem.model)
        return CellSolution(value, 0.0, 0, True, 0, mesh.h)

    bc = BoundaryCondition(kind="affine-layer", xi=problem.xi, depth=depth)
    rng = np.random.default_rng(problem.seed) if problem.restarts > 1 else None
    scale = 0.01 * mesh.h
    best = None
    for attempt in range(problem.restarts):
        init = None
        if attempt > 0:
            init = affine_positions(mesh, problem.xi)
            init += scale * rng.standard_normal(init.shape)
        result = minimize(mesh, problem.model, bc, init=init, settings=problem.settings)
        if best is None or result.energy < best.energy:
            best = result
    return CellSolution(best.energy, best.grad_norm, best.iterations, best.converged,
                        mesh.num_vertices - layer.size, mesh.h)


def solve_cells(cells, model: EnergyModel, restarts: int = 1,
                settings: MinimizeSettings = DEFAULT_SETTINGS, parts: int = 1, run=map):
    """Solve every distinct cell (xi, cell source, run seed) once; returns
    outcome(xi, cell source, run seed), the cell's CellSolution or the
    ValueError or RuntimeError (every polynet error is one) it raised.

    The run seed only perturbs the starts of restarts after the first, so
    with one restart cells that differ in it alone are solved once.  With
    one restart the periodic cells are answered here in closed form (see
    _periodic_solutions): they build no mesh and never reach run.  The other
    cells are grouped by source, and a source with c of their C distinct
    cells is cut into min(c, ceil(parts * c / C)) contiguous chunks: only a
    source holding more than 1/parts of them is split.  The chunks are dealt
    into min(parts, chunks) shares, one per process, longest first, each to
    the share with the fewest cells so far (ties to the earlier share); a
    chunk whose source the share already holds joins that source's cells,
    so a share builds each of its sources' meshes once.  run(solve, shares)
    returns solve's outcome list for each share, in order; the default
    solves them here, one after another.
    """
    check_count(restarts, "restarts")
    check_count(parts, "parts")

    def key(xi, source, seed):
        xi = np.asarray(xi, dtype=float)
        return xi.tobytes(), xi.shape, source, seed if restarts > 1 else None

    seen, groups, closed = set(), {}, {}
    for cell in cells:
        cell_key = key(*cell)
        if cell_key in seen:
            continue
        seen.add(cell_key)
        if restarts == 1 and isinstance(cell[1], PeriodicCell):
            closed[cell_key] = cell
        else:
            groups.setdefault(cell[1], []).append(cell)
    outcomes = dict(zip(closed, _periodic_solutions(list(closed.values()), model)))
    count = len(seen) - len(outcomes)
    chunks = []
    for group in groups.values():
        n = min(len(group), -(-parts * len(group) // count))
        chunks += [group[len(group) * k // n:len(group) * (k + 1) // n] for k in range(n)]
    shares = [{} for _ in range(min(parts, len(chunks)))]
    sizes = [0] * len(shares)
    for chunk in sorted(chunks, key=len, reverse=True):
        k = sizes.index(min(sizes))
        shares[k].setdefault(chunk[0][1], []).extend(chunk)
        sizes[k] += len(chunk)
    shares = [list(share.values()) for share in shares]
    solved = run(partial(_solve_share, model=model, restarts=restarts, settings=settings),
                 shares)
    outcomes.update({key(*cell): result for share, results in zip(shares, solved)
                     for cell, result in zip((cell for group in share for cell in group),
                                             results)})
    return lambda xi, source, seed: outcomes[key(xi, source, seed)]


def _periodic_solutions(cells, model: EnergyModel) -> list:
    """Each one-restart periodic cell's CellSolution, or the error it raised,
    in order: the m-cell solve would stop at its affine start, whose density
    is periodic_density.  The gradient there is exactly zero, no vertex is
    minimized over, and h is the m-cell mesh's, by _make_mesh's expression.

    Each cell's lattice and xi shape are checked first; then the cells of
    a lattice go through CellProblem's checks as one stack, and m, and the
    valid ones are evaluated by one periodic_density call.  Only if that
    raises is each evaluated alone, for its own error.
    """
    outcomes, lattices = [None] * len(cells), {}
    for k, (xi, source, _) in enumerate(cells):
        try:
            _unit_cell(source.dim, source.diagonal)
            check_gradient_shape(np.shape(xi), source.dim)
            lattices.setdefault((source.dim, source.diagonal), []).append((k, xi, source.m))
        except ValueError as exc:
            outcomes[k] = exc
    for (dim, diagonal), rows in lattices.items():
        ks, xis, ms = zip(*rows)
        stack = np.array(xis, dtype=float)
        for k, m, error in zip(ks, ms, _xi_errors(stack, model)):
            outcomes[k] = error or _caught(check_count, m, "m")
        valid = [i for i, k in enumerate(ks) if outcomes[k] is None]
        try:
            values = periodic_density(stack[valid], model, dim, diagonal)
        except (ValueError, RuntimeError):  # some cell raises: each alone, for its own error
            values = [_caught(periodic_density, xi, model, dim, diagonal) for xi in stack[valid]]
        per_cell = _unit_cell(dim, diagonal).num_elements
        for i, value in zip(valid, values):
            outcomes[ks[i]] = value if isinstance(value, Exception) else CellSolution(
                float(value), 0.0, 0, True, 0, (1.0 / (per_cell * ms[i] ** dim)) ** (1.0 / dim))
    return outcomes


def _caught(fn, *args):
    """fn(*args), or the ValueError or RuntimeError it raised: the one place
    a cell's error is caught and kept (every polynet error is one)."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


def _solve_share(share, model, restarts, settings) -> list:
    """The outcomes of a share's single-source cell lists, in order; each
    list's mesh is dropped before the next is built."""
    return [outcome for cells in share
            for outcome in _solve_chunk(cells, model, restarts, settings)]


def _solve_chunk(cells, model, restarts, settings, meshes: dict | None = None) -> list:
    """Each cell's CellSolution or the error it raised, in order.  meshes (a
    fresh dict by default) keeps each source's mesh, built for its first
    valid cell, or the error its build raised, which each of its valid
    cells then gets."""
    meshes = {} if meshes is None else meshes

    def solve(xi, source, seed):
        problem = CellProblem(xi=xi, source=source, model=model, restarts=restarts,
                              seed=seed, settings=settings)
        if source not in meshes:
            meshes[source] = _caught(build_cell_mesh, source)
        mesh = meshes[source]
        return mesh if isinstance(mesh, Exception) else solve_cell_problem(problem, mesh)

    return [_caught(solve, *cell) for cell in cells]


# ---------------------------------------------------------------------------
# Scale sweeps


@dataclass
class CellRecord:
    scale: float  # h (stochastic) or the mesh h (periodic)
    realization: int
    seed: int
    value: float
    grad_norm: float
    iterations: int
    status: str = "ok"  # "ok", "max_iters" (stopped unconverged) or "failed"
    error: str = ""  # "Type: message" of a failed cell, empty otherwise


@dataclass
class ScaleEstimate:
    h: float
    value: float  # mean over the scale's cells that did not fail
    grad_norm: float
    stderr: float  # standard error of that mean (0 for a single cell)
    n: int  # cells in the mean
    records: list[CellRecord] = field(default_factory=list)


@dataclass
class HomogEstimate:
    """Result of a refinement sweep: one estimate per scale plus diagnostics.

    cauchy_gaps[k] is |v_{k+1} - v_k| for the successive per-scale values
    v_k = per_h[k].value.  The gaps should tend to zero under refinement;
    no monotone decrease is promised (stochastic gaps carry realization
    noise).  On periodic cells every gap is zero up to roundoff, because the
    affine state is critical at every m and the density does not depend on h.
    extrapolated is the finest-scale value; richardson is a first-order
    Richardson step on the two finest scales (None with fewer than three).
    """

    xi: np.ndarray
    per_h: list[ScaleEstimate]
    cauchy_gaps: list[float]
    extrapolated: float
    richardson: float | None = None


def failure_reason(exc: BaseException) -> str:
    """How a failure is reported in records and outputs: "Type: message"."""
    return f"{type(exc).__name__}: {exc}"


def _realization_seed(base_seed: int, scale_index: int, realization: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(scale_index, realization))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sweep_runs(source, scales, n_realizations: int = 1, seed: int = 0) -> list[list]:
    """The cells of a sweep as (cell source, run seed), one list per scale
    with one entry per realization (a single one for periodic sources).

    The seeds depend on (seed, scale index, realization) only, never on xi,
    so every xi of a sweep solves on the same meshes.
    """
    if isinstance(source, PeriodicCell):
        n_realizations = 1
    else:
        check_count(n_realizations, "n_realizations")
    runs = []
    for s_idx, scale in enumerate(scales):
        seeds = [_realization_seed(seed, s_idx, r) for r in range(n_realizations)]
        runs.append([(at_scale(source, scale, s), s) for s in seeds])
    return runs


def sweep(xi_list, scales, model: EnergyModel, source, n_realizations: int = 1,
          seed: int = 0, restarts: int = 1, settings: MinimizeSettings = DEFAULT_SETTINGS,
          frame=(), iso=(), parts: int = 1, run=map) -> tuple[list, dict]:
    """Sweep cell problems over mesh scales (and realizations, if
    stochastic) for every xi, then probe each xi on the finest cells.

    source is a PeriodicCell or StochasticCell template; scales replaces its
    m (periodic) or h (stochastic) entry.  Periodic runs force one
    realization; a non-finite xi, or an xi or rotation that is not dim x
    dim, raises a ValueError before any cell runs.  The expectation over
    lattice realizations is a sample mean with its standard error.  A
    cell's ValueError or RuntimeError (every polynet error is one) is
    recorded as its failure_reason.  Every cell, probe cells included, is
    solved by one solve_cells call with `parts` and `run`.

    Returns (estimates, probes).  estimates[k] is xi k's HomogEstimate, or
    the RuntimeError, naming the first cell's reason, of a scale with no
    successful cell.  probes[str(k)] holds xi k's frame_invariance_deviation
    over the rotations `frame` and isotropy_deviation over `iso`, read from
    runs_estimator on the finest scale's cells, or {"error": reason} when a
    probe fails; an xi without rotations has no entry.
    """
    xi_list = [np.asarray(xi, dtype=float) for xi in xi_list]
    if not all(np.isfinite(xi).all() for xi in xi_list):
        raise ValueError("xi must be finite")
    for name, matrices in (("xi", xi_list), ("probe rotation", [*frame, *iso])):
        for matrix in matrices:
            check_gradient_shape(np.shape(matrix), source.dim, name)
    scales = list(scales)
    if len(scales) < 2:
        raise ValueError("need at least 2 scales for a convergence sweep")

    # every sweep cell, then every rotated probe cell; the probes solve on
    # the finest runs, which hold each xi's base cells
    runs = sweep_runs(source, scales, n_realizations, seed)
    cells = [(xi, cell_source, run_seed) for xi in xi_list
             for scale_runs in runs for cell_source, run_seed in scale_runs]
    cells += [(_rotated(xi, rot, side), cell_source, run_seed) for xi in xi_list
              for rotations, side in ((frame, "left"), (iso, "right")) for rot in rotations
              for cell_source, run_seed in runs[-1]]
    outcome = solve_cells(cells, model, restarts, settings, parts, run)

    estimates, probes = [], {}
    estimator = runs_estimator(runs[-1], outcome)
    for xi_id, xi in enumerate(xi_list):
        try:
            estimates.append(sweep_estimate(xi, scales, runs, outcome))
        except RuntimeError as exc:  # a scale without a successful cell
            estimates.append(exc)
        entry = {}
        try:
            if frame:
                entry["frame_invariance_deviation"] = frame_invariance_probe(
                    estimator, xi, frame)
            if iso:
                entry["isotropy_deviation"] = isotropy_probe(estimator, xi, iso)
        except (ValueError, RuntimeError) as exc:  # polynet errors; bugs surface
            entry = {"error": failure_reason(exc)}
        if entry:
            probes[str(xi_id)] = entry
    return estimates, probes


def estimate_whom(xi, scales, model: EnergyModel, source, n_realizations: int = 1,
                  seed: int = 0, restarts: int = 1,
                  settings: MinimizeSettings = DEFAULT_SETTINGS) -> HomogEstimate:
    """sweep's one-xi case: its HomogEstimate, or its RuntimeError raised."""
    (estimate,), _ = sweep([xi], scales, model, source, n_realizations, seed,
                           restarts, settings)
    if isinstance(estimate, RuntimeError):
        raise estimate
    return estimate


def sweep_estimate(xi, scales, runs, outcome) -> HomogEstimate:
    """The HomogEstimate of one xi from its cells' outcomes.

    runs is sweep_runs' list; outcome(xi, cell source, run seed) is that
    cell's CellSolution or the exception it failed with.  A cell that
    stopped at max_iters keeps its value under status "max_iters".  A scale
    with no successful cell raises a RuntimeError naming the first cell's
    reason.
    """
    periodic = isinstance(runs[0][0][0], PeriodicCell)
    per_h: list[ScaleEstimate] = []
    for scale, scale_runs in zip(scales, runs):
        records = []
        for real, (cell_source, run_seed) in enumerate(scale_runs):
            sol = outcome(xi, cell_source, run_seed)
            if isinstance(sol, Exception):
                records.append(CellRecord(scale, real, run_seed, math.nan, math.nan, 0,
                                          "failed", failure_reason(sol)))
            else:
                records.append(CellRecord(sol.h if periodic else float(scale), real, run_seed,
                                          sol.value, sol.grad_norm, sol.iterations,
                                          "ok" if sol.converged else "max_iters"))
        values = np.array([r.value for r in records if r.status != "failed"])
        if values.size == 0:
            raise RuntimeError(f"every cell problem failed at scale {scale}: {records[0].error}")
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        grad_norm = float(max(r.grad_norm for r in records if r.status != "failed"))
        h_val = records[0].scale if periodic else float(scale)
        per_h.append(ScaleEstimate(h=h_val, value=mean, grad_norm=grad_norm, stderr=stderr,
                                   n=int(values.size), records=records))

    gaps = [abs(per_h[k + 1].value - per_h[k].value) for k in range(len(per_h) - 1)]
    return HomogEstimate(xi=xi, per_h=per_h, cauchy_gaps=gaps,
                         extrapolated=per_h[-1].value, richardson=_richardson(per_h))


def _richardson(per_h: list[ScaleEstimate]) -> float | None:
    """First-order Richardson step on the two finest scales, when meaningful."""
    if len(per_h) < 3:
        return None
    h1, h2 = per_h[-2].h, per_h[-1].h
    v1, v2 = per_h[-2].value, per_h[-1].value
    if not (h2 < h1):
        return None
    theta = h2 / h1
    return float(v2 + (v2 - v1) * theta / (1.0 - theta))


# ---------------------------------------------------------------------------
# Probes


def random_rotations(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """`count` Haar-uniform rotations in dimension 2 or 3, drawn in one batch
    from a generator seeded with `seed` (so any count's first k are the k of
    that seed): angles uniform on [0, 2 pi) in 2D; in 3D the Q factors of
    standard normal matrices, times the signs of R's diagonal, with column 0
    negated where det Q < 0."""
    rng = np.random.default_rng(seed)
    if dim == 2:
        return [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                for t in rng.uniform(0.0, 2.0 * math.pi, count)]
    if dim != 3:
        raise ValueError("rotations supported in dimension 2 and 3 only")
    q, r = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return list(q)


def _rotated(xi, rot, side: str) -> np.ndarray:
    """rot @ xi on the "left" side (frame), xi @ rot on the "right"
    (isotropy): the one expression for every probe cell's xi."""
    return rot @ xi if side == "left" else xi @ rot


def _probe(estimator, xi, rotations, side: str) -> float:
    xi = np.asarray(xi, dtype=float)
    base = float(estimator(xi))
    denom = max(abs(base), np.finfo(float).tiny)
    worst = 0.0
    for rot in rotations:
        worst = max(worst, abs(float(estimator(_rotated(xi, rot, side))) - base) / denom)
    return worst


def frame_invariance_probe(estimator, xi, rotations) -> float:
    """Max relative deviation of W(R @ xi) from W(xi) over the rotations R."""
    return _probe(estimator, xi, rotations, "left")


def isotropy_probe(estimator, xi, rotations) -> float:
    """Max relative deviation of W(xi @ R) from W(xi); large means anisotropic."""
    return _probe(estimator, xi, rotations, "right")


@dataclass
class ConvexityReport:
    t_grid: np.ndarray
    values: np.ndarray
    chord_excess: np.ndarray  # value minus chord of neighbors; > 0 violates
    worst_violation: float
    convex: bool


def rank_one_convexity_sample(estimator, xi, a, b, t_grid,
                              noise_floor: float = 0.0) -> ConvexityReport:
    """Sampled convexity of t -> W(xi + t * a ox b) along a rank-one line.

    Checks discrete midpoint convexity against neighbor chords; a positive
    chord excess beyond the noise floor flags a violation of this necessary
    condition for quasiconvexity.  Fewer than 3 grid points give a trivially
    empty report.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.linalg.norm(a) > 0.0 and np.linalg.norm(b) > 0.0):
        raise ValueError("rank-one directions must be nonzero")
    xi = np.asarray(xi, dtype=float)
    ts = np.sort(np.asarray(t_grid, dtype=float))
    values = np.array([float(estimator(xi + t * np.outer(a, b))) for t in ts])
    if ts.size < 3:
        empty = np.empty(0)
        return ConvexityReport(ts, values, empty, 0.0, True)
    left, mid, right = values[:-2], values[1:-1], values[2:]
    t0, t1, t2 = ts[:-2], ts[1:-1], ts[2:]
    chord = (left * (t2 - t1) + right * (t1 - t0)) / (t2 - t0)
    excess = mid - chord
    worst = float(excess.max())
    return ConvexityReport(ts, values, excess, worst, worst <= noise_floor)


# ---------------------------------------------------------------------------
# The anisotropic lattice example

DIAG_DIRECTION = np.array([-1.0, 1.0]) / math.sqrt(2.0)  # e2 - e1, normalized
ANTIDIAG_DIRECTION = np.array([1.0, 1.0]) / math.sqrt(2.0)  # e1 + e2, normalized


@dataclass
class CounterexampleResult:
    stiffness_diag: float  # directional stiffness along e2 - e1
    stiffness_antidiag: float  # directional stiffness along e1 + e2
    ratio: float


def anisotropy_counterexample(
    stiffness: float = 1.0,
    f: float = 1.0,
    diagonal: str = "nw",
) -> CounterexampleResult:
    """Directional stiffnesses of the quadratic-spring lattice at identity.

    The stiffness along a unit direction d is the second derivative of
    t -> W(I + t * d ox d) at t = 0, W the 2D periodic_density of springs.
    That W is a quadratic form, so the central second difference gives it
    exactly at any step; the step 1/2 keeps I -+ (d ox d) / 2 invertible,
    as periodic_density needs (a lattice direction mapped to zero raises).
    With the 'nw' cell diagonal the lattice is stiffer along e2 - e1 than
    along e1 + e2; swapping the diagonal to 'ne' swaps the two values.
    """
    if not (stiffness > 0.0 and f > 0.0):
        raise ValueError("spring stiffness and chains-per-volume factor f must be positive")
    spring = EnergyModel(pair=PairPotential.quadratic_spring(stiffness), f=f)
    xi = [[np.eye(2) + t * np.outer(d, d) for t in (-0.5, 0.0, 0.5)]
          for d in (DIAG_DIRECTION, ANTIDIAG_DIRECTION)]
    w = periodic_density(np.array(xi), spring, 2, diagonal)
    diag, antidiag = (float(x) for x in (w[:, 0] - 2.0 * w[:, 1] + w[:, 2]) / 0.25)
    return CounterexampleResult(diag, antidiag, diag / antidiag)


# ---------------------------------------------------------------------------
# Estimator factory and result serialization


def cell_estimator(
    source: PeriodicCell | StochasticCell,
    model: EnergyModel,
    n_realizations: int = 1,
    seed: int = 0,
    restarts: int = 1,
    settings: MinimizeSettings = DEFAULT_SETTINGS,
):
    """Estimator xi -> mean density of cell problems on fixed meshes of source.

    A periodic source gives one cell problem with problem seed `seed`.  A
    stochastic source gives n_realizations lattices, seeded as the first
    scale of estimate_whom; the seeds are fixed by the factory, so different
    xi are evaluated on the same meshes (common random numbers) and
    deviations between xi reflect anisotropy rather than sampling noise.
    Each mesh is built once, on first use, and kept by the estimator.
    """
    check_count(restarts, "restarts")
    meshes = {}

    def outcome(xi, cell_source, run_seed):
        return _solve_chunk([(xi, cell_source, run_seed)], model, restarts, settings,
                            meshes)[0]

    runs = ([(source, seed)] if isinstance(source, PeriodicCell)
            else sweep_runs(source, [source.h], n_realizations, seed)[0])
    return runs_estimator(runs, outcome)


def runs_estimator(runs, outcome):
    """Estimator xi -> mean density over the cells of runs, a list of (cell
    source, run seed), read from outcome(xi, cell source, run seed) as
    solve_cells returns it; the first failed cell raises its error."""
    def estimator(xi):
        values = []
        for cell_source, run_seed in runs:
            solution = outcome(xi, cell_source, run_seed)
            if isinstance(solution, Exception):
                raise solution
            values.append(solution.value)
        return float(np.mean(values))

    return estimator


def write_estimates_csv(path, estimates: list[HomogEstimate | Exception]) -> None:
    """One row per (xi index, scale, realization); floats with 17 digits.

    xi_id is the index in `estimates`; failed sweeps (their exceptions, as
    sweep returns them) write no rows but keep their index.
    """
    present = [(xi_id, est) for xi_id, est in enumerate(estimates)
               if not isinstance(est, Exception)]
    if not present:
        raise ValueError("nothing to write")
    dim = present[0][1].xi.shape[0]
    xi_cols = [f"xi{i}{j}" for i in range(dim) for j in range(dim)]
    header = ["xi_id", *xi_cols, "h", "realization", "value", "grad_norm",
              "iterations", "seed", "status", "error"]

    def fmt(x):
        return f"{x:.17g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for xi_id, est in present:
            flat = [fmt(v) for v in est.xi.ravel()]
            for scale in est.per_h:
                for rec in scale.records:
                    writer.writerow(
                        [xi_id, *flat, fmt(rec.scale), rec.realization,
                         fmt(rec.value), fmt(rec.grad_norm), rec.iterations,
                         rec.seed, rec.status, rec.error]
                    )


def summary_dict(estimates: list[HomogEstimate | Exception], probes: dict | None = None) -> dict:
    """JSON-ready summary: per-xi extrapolated values, gaps, realization stats.

    xi_id keeps the list index.  A failed sweep (its exception, as sweep
    returns it) is listed under "failed" with its reason instead; without
    one there is no "failed" entry.
    """
    out = {"estimates": [], "probes": probes or {}}
    for xi_id, est in enumerate(estimates):
        if isinstance(est, Exception):
            out.setdefault("failed", []).append(
                {"xi_id": xi_id, "error": failure_reason(est)})
            continue
        out["estimates"].append(
            {
                "xi_id": xi_id,
                "xi": [[float(v) for v in row] for row in est.xi],
                "per_h": [
                    {
                        "h": s.h,
                        "value": s.value,
                        "grad_norm": s.grad_norm,
                        "mean": s.value,
                        "stderr": s.stderr,
                        "n": s.n,
                        "n_max_iters": sum(r.status == "max_iters" for r in s.records),
                    }
                    for s in est.per_h
                ],
                "cauchy_gaps": list(est.cauchy_gaps),
                "extrapolated": est.extrapolated,
                "richardson": est.richardson,
            }
        )
    return out
