"""Cell problems and estimators for the homogenized energy density.

The homogenized density at a macroscopic gradient xi is estimated by
pinning a boundary layer of the unit box to the affine map xi @ x,
minimizing the network energy over the interior, and reading off the
minimal energy per unit volume.  Periodic meshes use a layer of depth 2h;
stochastic meshes use 2*h*R with R the lattice covering radius, and the
estimate is averaged over independent lattice realizations.  Probes for
frame invariance, isotropy and sampled rank-one convexity operate on any
scalar estimator xi -> W(xi).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    BoundaryCondition,
    EnergyModel,
    affine_positions,
    total_energy,
)
from .meshing import (
    Mesh,
    StochasticLatticeSpec,
    boundary_layer,
    build_stochastic_mesh,
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
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.model.vol is not None:
            det = float(np.linalg.det(self.xi))
            if det <= self.model.vol.eta:
                raise ValueError(
                    "det(xi) must exceed the volumetric cut-off for cell problems"
                )


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
        if source.dim == 2:
            return periodic_mesh_2d(source.m, source.diagonal)
        if source.dim == 3:
            return periodic_mesh_3d(source.m)
        raise ValueError("periodic sources support dim 2 and 3 only")
    return build_stochastic_mesh(source.lattice, source.h, source.dim)


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


def solve_cell_problem(problem: CellProblem) -> CellSolution:
    """Minimize over the interior with the affine layer pinned.

    When the layer swallows every vertex the admissible set is the single
    affine state and its energy is returned directly (this happens for the
    coarsest meshes, where 2h exceeds the inradius).
    """
    mesh = build_cell_mesh(problem.source)
    depth = default_layer_depth(problem.source, mesh)
    layer = boundary_layer(mesh, depth)
    affine = affine_positions(mesh, problem.xi)
    if layer.size == mesh.num_vertices:
        value = total_energy(mesh, affine, problem.model)
        return CellSolution(value, 0.0, 0, True, 0, mesh.h)

    bc = BoundaryCondition(kind="affine-layer", xi=problem.xi, depth=depth)
    rng = np.random.default_rng(problem.seed)
    scale = 0.01 * mesh.h
    best = None
    for attempt in range(problem.restarts):
        init = affine.copy()
        if attempt > 0:
            init += scale * rng.standard_normal(init.shape)
        result = minimize(mesh, problem.model, bc, init=init, settings=problem.settings)
        if best is None or result.energy < best.energy:
            best = result
    n_free = mesh.num_vertices - layer.size
    return CellSolution(
        best.energy, best.grad_norm, best.iterations, best.converged, n_free, mesh.h
    )


def cell_energy_density(problem: CellProblem) -> float:
    """Estimated homogenized density at the problem's scale: min energy / vol."""
    return solve_cell_problem(problem).value


# ---------------------------------------------------------------------------
# Single-cell convex oracle for quadratic springs (periodic fluctuations)


def _torus_cell_edges(m: int, diagonal: str):
    """Pairs (orbit_a, orbit_b, reference edge vector) of the periodic cell mesh."""
    s = 1.0 / m
    if diagonal == "nw":
        tris = [((0, 0), (1, 0), (0, 1)), ((1, 0), (1, 1), (0, 1))]
    elif diagonal == "ne":
        tris = [((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))]
    else:
        raise ValueError("diagonal must be 'nw' or 'ne'")
    edges = []
    for ci in range(m):
        for cj in range(m):
            for tri in tris:
                corners = [((ci + dx) * s, (cj + dy) * s) for dx, dy in tri]
                orbits = [((ci + dx) % m, (cj + dy) % m) for dx, dy in tri]
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    vec = np.subtract(corners[a], corners[b])
                    edges.append((orbits[a], orbits[b], vec))
    return edges


def single_cell_oracle_2d(
    xi,
    stiffness: float = 1.0,
    f: float = 1.0,
    m: int = 1,
    diagonal: str = "nw",
) -> float:
    """Homogenized density of the quadratic-spring lattice by one periodic cell.

    For linear springs the density is a quadratic form, so the cell problem
    with periodic fluctuations and mean gradient xi reduces to a small linear
    solve.  This is the reference value the finite-size affine-layer
    estimates must approach.
    """
    xi = np.asarray(xi, dtype=float)
    edges = _torus_cell_edges(m, diagonal)
    index = {}
    for a, b, _ in edges:
        for orbit in (a, b):
            if orbit not in index:
                index[orbit] = len(index)
    n_dof = 2 * len(index)
    weight = 1.0 / (2 * m * m)  # h^2 for N_el = 2 m^2

    amat = np.zeros((n_dof, n_dof))
    bvec = np.zeros(n_dof)
    const = 0.0
    for a, b, vec in edges:
        kappa = weight * f * stiffness / (vec @ vec)
        c = xi @ vec
        const += kappa * (c @ c)
        ia, ib = 2 * index[a], 2 * index[b]
        if ia == ib:
            continue
        # energy kappa * |c + w_a - w_b|^2
        for comp in range(2):
            pa, pb = ia + comp, ib + comp
            amat[pa, pa] += 2.0 * kappa
            amat[pb, pb] += 2.0 * kappa
            amat[pa, pb] -= 2.0 * kappa
            amat[pb, pa] -= 2.0 * kappa
            bvec[pa] += 2.0 * kappa * c[comp]
            bvec[pb] -= 2.0 * kappa * c[comp]
    w, *_ = np.linalg.lstsq(amat, -bvec, rcond=None)
    return float(const + bvec @ w + 0.5 * w @ amat @ w)


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
    status: str = "ok"
    error: str = ""  # "Type: message" of a failed cell, empty when ok


@dataclass
class RealizationStats:
    mean: float
    stderr: float
    n: int


@dataclass
class ScaleEstimate:
    h: float
    value: float
    grad_norm: float
    stats: RealizationStats
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


def estimate_whom(
    xi,
    scales,
    model: EnergyModel,
    source,
    n_realizations: int = 1,
    seed: int = 0,
    restarts: int = 1,
    settings: MinimizeSettings = DEFAULT_SETTINGS,
    on_error: str = "raise",
) -> HomogEstimate:
    """Sweep cell problems over mesh scales (and realizations, if stochastic).

    source is a PeriodicCell or StochasticCell template; scales replaces its
    m (periodic) or h (stochastic) entry.  Periodic runs force one
    realization.  The expectation over lattice realizations is taken as a
    sample mean with its standard error.  on_error "record" records a cell's
    ValueError or RuntimeError (every polynet error is one) as its
    failure_reason instead of raising; a scale with no successful cell
    raises a RuntimeError naming the first cell's reason regardless.

    The Cauchy diagnostic cauchy_gaps holds |v_{k+1} - v_k| over successive
    scales.  It should tend to zero as h shrinks, but need not decrease
    monotonically.  For periodic sources it is zero up to roundoff: the
    affine state is critical at every m, so every scale gives the same density.
    """
    xi = np.asarray(xi, dtype=float)
    scales = list(scales)
    if len(scales) < 2:
        raise ValueError("need at least 2 scales for a convergence sweep")
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    periodic = isinstance(source, PeriodicCell)
    if periodic:
        n_realizations = 1
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")

    per_h: list[ScaleEstimate] = []
    for s_idx, scale in enumerate(scales):
        records = []
        for real in range(n_realizations):
            run_seed = _realization_seed(seed, s_idx, real)
            try:
                problem = CellProblem(
                    xi=xi,
                    source=at_scale(source, scale, run_seed),
                    model=model,
                    restarts=restarts,
                    seed=run_seed,
                    settings=settings,
                )
                sol = solve_cell_problem(problem)
            except (ValueError, RuntimeError) as exc:
                if on_error == "raise":
                    raise
                records.append(
                    CellRecord(scale, real, run_seed, math.nan, math.nan, 0, "failed",
                               failure_reason(exc))
                )
                continue
            records.append(
                CellRecord(
                    sol.h if periodic else float(scale),
                    real,
                    run_seed,
                    sol.value,
                    sol.grad_norm,
                    sol.iterations,
                )
            )
        values = np.array([r.value for r in records if r.status == "ok"])
        if values.size == 0:
            raise RuntimeError(
                f"every cell problem failed at scale {scale}: {records[0].error}"
            )
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        grad_norm = float(
            max(r.grad_norm for r in records if r.status == "ok")
        )
        h_val = records[0].scale if periodic else float(scale)
        per_h.append(
            ScaleEstimate(
                h=h_val,
                value=mean,
                grad_norm=grad_norm,
                stats=RealizationStats(mean, stderr, int(values.size)),
                records=records,
            )
        )

    gaps = [abs(per_h[k + 1].value - per_h[k].value) for k in range(len(per_h) - 1)]
    richardson = _richardson(per_h)
    return HomogEstimate(
        xi=xi,
        per_h=per_h,
        cauchy_gaps=gaps,
        extrapolated=per_h[-1].value,
        richardson=richardson,
    )


def _richardson(per_h: list[ScaleEstimate]) -> float | None:
    """First-order Richardson step on the two finest scales, when meaningful."""
    if len(per_h) < 3:
        return None
    h1, h2 = per_h[-2].h, per_h[-1].h
    v1, v2 = per_h[-2].value, per_h[-1].value
    if not (h2 < h1) or h1 == h2:
        return None
    theta = h2 / h1
    return float(v2 + (v2 - v1) * theta / (1.0 - theta))


# ---------------------------------------------------------------------------
# Probes


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix in dimension 2 or 3."""
    if dim == 2:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])
    if dim == 3:
        a = rng.standard_normal((3, 3))
        q, r = np.linalg.qr(a)
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        return q
    raise ValueError("rotations supported in dimension 2 and 3 only")


def _probe(estimator, xi, rotation_count, seed, rotations, side: str) -> float:
    xi = np.asarray(xi, dtype=float)
    dim = xi.shape[0]
    if rotations is None:
        rng = np.random.default_rng(seed)
        rotations = [random_rotation(dim, rng) for _ in range(rotation_count)]
    base = float(estimator(xi))
    denom = max(abs(base), np.finfo(float).tiny)
    worst = 0.0
    for rot in rotations:
        probe_xi = rot @ xi if side == "left" else xi @ rot
        worst = max(worst, abs(float(estimator(probe_xi)) - base) / denom)
    return worst


def frame_invariance_probe(estimator, xi, rotation_count: int = 8, seed: int = 0,
                           rotations=None) -> float:
    """Max relative deviation of W(R @ xi) from W(xi) over random rotations R."""
    return _probe(estimator, xi, rotation_count, seed, rotations, "left")


def isotropy_probe(estimator, xi, rotation_count: int = 8, seed: int = 0,
                   rotations=None) -> float:
    """Max relative deviation of W(xi @ R) from W(xi); large means anisotropic."""
    return _probe(estimator, xi, rotation_count, seed, rotations, "right")


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
    m: int = 1,
    diagonal: str = "nw",
    step: float = 1e-3,
) -> CounterexampleResult:
    """Directional stiffnesses of the quadratic-spring lattice at identity.

    The stiffness along a unit direction d is the three-point second
    difference of t -> single_cell_oracle_2d(I + t * d ox d) at t = 0.  With
    the 'nw' cell diagonal the lattice is stiffer along e2 - e1 than along
    e1 + e2; swapping the diagonal to 'ne' swaps the two values.
    """
    eye = np.eye(2)

    def density(mat):
        return single_cell_oracle_2d(mat, stiffness, f, m=m, diagonal=diagonal)

    w0 = density(eye)
    out = []
    for d in (DIAG_DIRECTION, ANTIDIAG_DIRECTION):
        dd = np.outer(d, d)
        out.append(
            (density(eye + step * dd) - 2.0 * w0 + density(eye - step * dd)) / step**2
        )
    return CounterexampleResult(out[0], out[1], out[0] / out[1])


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
    """
    if isinstance(source, PeriodicCell):
        runs = [(source, seed)]
    else:
        seeds = [_realization_seed(seed, 0, r) for r in range(n_realizations)]
        runs = [(at_scale(source, source.h, s), s) for s in seeds]

    def estimator(xi):
        return float(np.mean([
            cell_energy_density(
                CellProblem(xi=xi, source=cell_source, model=model,
                            restarts=restarts, seed=run_seed, settings=settings)
            )
            for cell_source, run_seed in runs
        ]))

    return estimator


def write_estimates_csv(path, estimates: list[HomogEstimate | None]) -> None:
    """One row per (xi index, scale, realization); floats with 17 digits.

    xi_id is the index in `estimates`; None entries (failed sweeps) write no
    rows but keep their index.
    """
    present = [(xi_id, est) for xi_id, est in enumerate(estimates) if est is not None]
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


def summary_dict(estimates: list[HomogEstimate | None], probes: dict | None = None) -> dict:
    """JSON-ready summary: per-xi extrapolated values, gaps, realization stats.

    None entries (failed sweeps) are skipped; xi_id keeps the list index.
    """
    out = {"estimates": [], "probes": probes or {}}
    for xi_id, est in enumerate(estimates):
        if est is None:
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
                        "mean": s.stats.mean,
                        "stderr": s.stats.stderr,
                        "n": s.stats.n,
                    }
                    for s in est.per_h
                ],
                "cauchy_gaps": list(est.cauchy_gaps),
                "extrapolated": est.extrapolated,
                "richardson": est.richardson,
            }
        )
    return out
