"""Simplicial meshes of the unit cube and the point sets behind them.

Periodic meshes are built by replicating one unit cell: the Kuhn 6-tet
split of a subcube in 3D (translation-periodic, no parity alternation) and
a single fixed diagonal per square in 2D.  Stochastic meshes come from
hardcore point processes (Matern type II thinning or a jittered grid),
rescaled, clipped to the unit box and Delaunay-triangulated.  All meshes
carry the scale h = (1/N_el)^(1/dim) and per-vertex distances to the
boundary of the unit box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree


class DegenerateGeometryError(ValueError):
    """Raised for collapsed elements or point sets with no full-dimensional hull."""


class InfeasibleLatticeError(ValueError):
    """Raised when a lattice spec cannot deliver its separation at its intensity."""


def _unit_boundary_distance(points: np.ndarray) -> np.ndarray:
    """Distance of each point to the boundary of the closed unit box."""
    return np.minimum(points, 1.0 - points).min(axis=1)


@dataclass(eq=False)
class Mesh:
    """Simplicial mesh: vertices, positively oriented elements, scale h."""

    dim: int
    vertices: np.ndarray  # (N, dim) float
    elements: np.ndarray  # (M, dim+1) int, positive orientation
    h: float
    boundary_flags: np.ndarray  # (N,) distance to the unit-box boundary
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    def element_volumes(self) -> np.ndarray:
        if "volumes" not in self._cache:
            self._cache["volumes"] = signed_volumes(self.vertices, self.elements)
        return self._cache["volumes"]

    def validate(self, box_tol: float = 1e-9) -> None:
        if not np.all(self.element_volumes() > 0.0):
            raise DegenerateGeometryError("mesh has non-positively oriented elements")
        h_ref = (1.0 / self.num_elements) ** (1.0 / self.dim)
        if abs(self.h - h_ref) > 1e-12:
            raise ValueError("mesh scale h inconsistent with element count")
        if self.vertices.min() < -box_tol or self.vertices.max() > 1.0 + box_tol:
            raise ValueError("mesh vertices leave the closed unit box")


def edge_columns(points: np.ndarray, elements: np.ndarray) -> list:
    """Edge matrices of a batch of simplices, component-major: entry [k][c]
    is component c of x_{k+1} - x_0 over the batch."""
    comps, corners = points.T, elements.T
    base = [x[corners[0]] for x in comps]
    return [[x[corner] - b for x, b in zip(comps, base)] for corner in corners[1:]]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def cofactors(cols: list):
    """(cof(A), det(A)) of a batch of 2x2 or 3x3 matrices A in the layout of
    edge_columns, as explicit products; cof(A) = det(A) A^-T has the same
    layout.  det(A) is column 0 of A dotted with column 0 of cof(A), so a
    swap of the last two columns negates it exactly."""
    if len(cols) == 2:
        (a0, a1), (b0, b1) = cols
        cof = [(b1, -b0), (-a1, a0)]
    else:
        a, b, c = cols
        cof = [_cross(b, c), _cross(c, a), _cross(a, b)]
    return cof, sum(x * y for x, y in zip(cols[0], cof[0]))


def signed_volumes(vertices: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Signed simplex volumes det(edge matrix) / dim! for a batch of elements."""
    return cofactors(edge_columns(vertices, elements))[1] / math.factorial(vertices.shape[1])


def _make_mesh(dim: int, vertices: np.ndarray, elements: np.ndarray,
               vols: np.ndarray | None = None) -> Mesh:
    """Mesh of the elements.  Given their signed volumes vols, an element of
    negative volume gets its last two vertices swapped and |vols| are kept."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    elements = np.array(elements, dtype=np.int64)
    cache = {}
    if vols is not None:
        neg = vols < 0.0
        elements[neg, -2:] = elements[neg][:, [-1, -2]]
        cache["volumes"] = np.abs(vols)
    mesh = Mesh(
        dim=dim,
        vertices=vertices,
        elements=elements,
        h=(1.0 / elements.shape[0]) ** (1.0 / dim),
        boundary_flags=_unit_boundary_distance(vertices),
        _cache=cache,
    )
    mesh.validate()
    return mesh


def periodic_mesh_3d(m: int) -> Mesh:
    """Unit cube split into m^3 subcubes of 6 Kuhn tetrahedra each.

    Every subcube receives the identical split (all 6 tets share the main
    diagonal), so the edge set is exactly translation-periodic.  N_el = 6*m^3.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = m + 1
    grid = np.arange(n) / m
    xx, yy, zz = np.meshgrid(grid, grid, grid, indexing="ij")
    vertices = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)

    # vertex-id offsets of the Kuhn walks 0, e_p0, e_p0 + e_p1, (1, 1, 1)
    # from a subcube's origin, one per permutation p in itertools order
    steps = np.array([n * n, n, 1], dtype=np.int64)
    walks = np.array(
        [np.cumsum([0, *steps[list(perm)]]) for perm in itertools.permutations(range(3))]
    )
    cells = np.arange(m, dtype=np.int64)
    origins = (cells[:, None, None] * n + cells[None, :, None]) * n + cells[None, None, :]
    elements = (origins.reshape(-1, 1, 1) + walks).reshape(-1, 4)
    return _make_mesh(3, vertices, elements, signed_volumes(vertices, elements))


def periodic_mesh_2d(m: int, diagonal: str = "nw") -> Mesh:
    """Unit square split into m^2 cells of 2 triangles each.

    diagonal "nw" runs from the top-left to the bottom-right corner of every
    cell (direction e1 - e2); "ne" runs bottom-left to top-right (e1 + e2).
    N_el = 2*m^2.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if diagonal not in ("nw", "ne"):
        raise ValueError("diagonal must be 'nw' or 'ne'")
    n = m + 1
    grid = np.arange(n) / m
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)

    # corner offsets of a cell: bl = 0, br = n, tl = 1, tr = n + 1
    if diagonal == "nw":
        triangles = np.array([[0, n, 1], [n, n + 1, 1]], dtype=np.int64)
    else:
        triangles = np.array([[0, n, n + 1], [0, n + 1, 1]], dtype=np.int64)
    cells = np.arange(m, dtype=np.int64)
    origins = cells[:, None] * n + cells[None, :]
    elements = (origins.reshape(-1, 1, 1) + triangles).reshape(-1, 3)
    return _make_mesh(2, vertices, elements, signed_volumes(vertices, elements))


@dataclass(frozen=True)
class StochasticLatticeSpec:
    """Generator spec for an admissible random point set.

    intensity is the delivered point density (points per unit volume), r_min
    the hardcore separation and R_cov the claimed covering radius.  The same
    seed always reproduces the same points.
    """

    kind: str  # "matern-hardcore" | "jittered-grid"
    intensity: float
    r_min: float
    R_cov: float
    seed: int

    def __post_init__(self):
        if self.kind not in ("matern-hardcore", "jittered-grid"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if not self.intensity > 0.0:
            raise ValueError("intensity must be positive")
        if not self.r_min > 0.0:
            raise ValueError("r_min must be positive")
        if not self.R_cov > 0.5 * self.r_min:
            raise ValueError("R_cov must exceed r_min/2")


@dataclass(frozen=True)
class AdmissibilityReport:
    covering_ok: bool
    separation_ok: bool
    measured_R: float
    measured_r: float
    delaunay_quality: float  # min over elements of shortest edge / circumradius


def _box_arrays(box) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = (np.asarray(side, dtype=float) for side in box)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise ValueError("box must be a pair of lo/hi corners with hi > lo")
    return lo, hi


def _ball_volume(dim: int, radius: float) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


def _uniform_in_ball(rng: np.random.Generator, count: int, dim: int, radius: float):
    if radius == 0.0 or count == 0:
        return np.zeros((count, dim))
    direction = rng.standard_normal((count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return direction * radii[:, None]


def stochastic_lattice(spec: StochasticLatticeSpec, box) -> np.ndarray:
    """Generate a hardcore point set for the given box; deterministic per seed.

    matern-hardcore: Poisson proposals on the box enlarged by r_min, thinned
    by uniform marks (a point dies if any proposal within r_min carries a
    smaller mark), then clipped to the box.  The proposal intensity is chosen
    so the *retained* process has the requested intensity, which is feasible
    only while intensity * vol(ball(r_min)) < 1.

    jittered-grid: grid of spacing s = intensity^(-1/dim) covering the box
    plus one extra ring, each node displaced uniformly in a ball of radius
    (s - r_min)/2.  Separation >= r_min and covering of the box within
    sqrt(dim)*s/2 + jitter hold by construction; points are not clipped so
    the covering bound survives near the box faces.
    """
    lo, hi = _box_arrays(box)
    dim = lo.size
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "jittered-grid":
        s = spec.intensity ** (-1.0 / dim)
        if spec.r_min > s * (1.0 + 1e-12):
            raise InfeasibleLatticeError(
                f"jittered grid cannot separate points by r_min = {spec.r_min:g} "
                f"at intensity {spec.intensity:g} (grid spacing {s:g})"
            )
        jitter = max(0.0, (s - spec.r_min) / 2.0)
        axes = [
            np.arange(math.ceil(lo[a] / s) - 1, math.floor(hi[a] / s) + 2)
            for a in range(dim)
        ]
        nodes = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        ).astype(float) * s
        return nodes + _uniform_in_ball(rng, nodes.shape[0], dim, jitter)

    # matern-hardcore
    v_ball = _ball_volume(dim, spec.r_min)
    if spec.intensity * v_ball >= 1.0:
        raise InfeasibleLatticeError(
            f"Matern thinning cannot deliver intensity {spec.intensity:g} with "
            f"r_min = {spec.r_min:g} (requires intensity * ball volume < 1)"
        )
    proposal_intensity = -math.log1p(-spec.intensity * v_ball) / v_ball
    lo_big, hi_big = lo - spec.r_min, hi + spec.r_min
    vol_big = float(np.prod(hi_big - lo_big))
    count = rng.poisson(proposal_intensity * vol_big)
    proposals = lo_big + rng.random((count, dim)) * (hi_big - lo_big)
    marks = rng.random(count)
    alive = np.ones(count, dtype=bool)
    if count >= 2:
        pairs = cKDTree(proposals).query_pairs(spec.r_min, output_type="ndarray")
        if pairs.size:
            mi, mj = marks[pairs[:, 0]], marks[pairs[:, 1]]
            losers = np.where(mi < mj, pairs[:, 1], pairs[:, 0])
            alive[losers] = False
    kept = proposals[alive]
    inside = np.all((kept >= lo) & (kept <= hi), axis=1)
    return kept[inside]


def rescale_and_clip(points: np.ndarray, h: float, box) -> np.ndarray:
    """Return {h*y : h*y in box}, the rescaled lattice restricted to the box."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    lo, hi = _box_arrays(box)
    scaled = np.asarray(points, dtype=float) * h
    inside = np.all((scaled >= lo) & (scaled <= hi), axis=1)
    return scaled[inside]


def _delaunay_simplices(points: np.ndarray):
    """Qhull Delaunay simplices with degenerate slivers dropped, and their
    signed volumes."""
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if n < dim + 1:
        raise DegenerateGeometryError("need at least dim+1 points to triangulate")
    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise DegenerateGeometryError(
            "Delaunay triangulation failed (coplanar or collinear input?)"
        ) from exc
    simplices = tri.simplices.astype(np.int64)
    vols = signed_volumes(points, simplices)
    scale = float(np.ptp(points, axis=0).max())
    keep = np.abs(vols) > 1e-12 * scale**dim
    if not keep.any():
        raise DegenerateGeometryError("all candidate elements are degenerate")
    return simplices[keep], vols[keep]


def delaunay_triangulate(points: np.ndarray, dim: int | None = None) -> Mesh:
    """Delaunay mesh of a point cloud inside the closed unit box.

    Elements are positively oriented and satisfy the empty-circumsphere
    property up to Qhull's handling of cospherical ties; the brute-force
    check lives in the test suite.
    """
    points = np.asarray(points, dtype=float)
    if dim is not None and points.shape[1] != dim:
        raise ValueError("points do not match the requested dimension")
    return _make_mesh(points.shape[1], points, *_delaunay_simplices(points))


def circumradii(points: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Circumsphere radii of a batch of simplices."""
    p = points[simplices]
    a = 2.0 * (p[:, 1:, :] - p[:, :1, :])
    b = (p[:, 1:, :] ** 2).sum(axis=2) - (p[:, :1, :] ** 2).sum(axis=2)
    centers = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    return np.linalg.norm(centers - p[:, 0, :], axis=1)


def _min_quality(points: np.ndarray, simplices: np.ndarray) -> float:
    """Min over elements of shortest edge / circumradius (larger is better)."""
    dim = points.shape[1]
    radii = circumradii(points, simplices)
    shortest = np.full(simplices.shape[0], np.inf)
    for i, j in itertools.combinations(range(dim + 1), 2):
        d = np.linalg.norm(points[simplices[:, i]] - points[simplices[:, j]], axis=1)
        shortest = np.minimum(shortest, d)
    return float((shortest / radii).min())


def check_admissibility(points, box, r_claim: float, R_claim: float) -> AdmissibilityReport:
    """Measure hardcore separation and covering radius against claimed bounds.

    The separation is the exact minimum pairwise distance; the covering
    radius is probed on a grid of spacing <= r_claim/4 over the box.  The
    Delaunay quality of the point set is reported alongside (NaN when the
    set cannot be triangulated).
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("admissibility check needs at least 2 points")
    if not (r_claim > 0.0 and R_claim > 0.0):
        raise ValueError("claimed radii must be positive")
    lo, hi = _box_arrays(box)
    tree = cKDTree(points)
    dists, _ = tree.query(points, k=2)
    measured_r = float(dists[:, 1].min())

    spacing = r_claim / 4.0
    axes = []
    for a in range(lo.size):
        n = max(2, int(math.ceil((hi[a] - lo[a]) / spacing)) + 1)
        axes.append(np.linspace(lo[a], hi[a], n))
    probes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    probe_dists, _ = tree.query(probes, k=1)
    measured_R = float(probe_dists.max())

    try:
        quality = _min_quality(points, _delaunay_simplices(points)[0])
    except DegenerateGeometryError:
        quality = float("nan")

    return AdmissibilityReport(
        covering_ok=measured_R <= R_claim,
        separation_ok=measured_r >= r_claim,
        measured_R=measured_R,
        measured_r=measured_r,
        delaunay_quality=quality,
    )


def build_stochastic_mesh(spec: StochasticLatticeSpec, h: float, dim: int) -> Mesh:
    """Lattice on the blown-up box, rescaled by h, clipped to the unit box,
    Delaunay-triangulated."""
    if not 0.0 < h:
        raise ValueError("h must be positive")
    unit = (np.zeros(dim), np.ones(dim))
    big = (np.zeros(dim), np.ones(dim) / h)
    points = stochastic_lattice(spec, big)
    clipped = rescale_and_clip(points, h, unit)
    return delaunay_triangulate(clipped, dim)


def element_gradient(mesh: Mesh, element_index: int, nodal_values: np.ndarray) -> np.ndarray:
    """Constant gradient of the piecewise-affine interpolant on one element.

    nodal_values holds one d-vector per mesh vertex; the result G satisfies
    G @ (x_k - x_0) = value_k - value_0 exactly for affine data.
    """
    el = mesh.elements[element_index]
    x = mesh.vertices[el]
    v = np.asarray(nodal_values, dtype=float)[el]
    xmat = (x[1:] - x[0]).T
    vmat = (v[1:] - v[0]).T
    det = np.linalg.det(xmat)
    if abs(det) < 1e-14 * mesh.h**mesh.dim:
        raise DegenerateGeometryError(f"element {element_index} is degenerate")
    return np.linalg.solve(xmat.T, vmat.T).T


def boundary_layer(mesh: Mesh, depth: float) -> np.ndarray:
    """Indices of vertices within `depth` of the unit-box boundary (closed)."""
    if depth < 0.0:
        raise ValueError("depth must be nonnegative")
    return np.flatnonzero(mesh.boundary_flags <= depth)


def write_mesh(mesh: Mesh, path) -> None:
    """ASCII mesh format: `dim N_vertices N_elements` header, vertex lines,
    element lines (0-based); 17 significant digits, deterministic."""
    lines = [f"{mesh.dim} {mesh.num_vertices} {mesh.num_elements}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{c:.17g}" for c in v))
    for el in mesh.elements:
        lines.append(" ".join(str(int(i)) for i in el))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    with open(path) as fh:
        tokens = fh.read().split("\n")
    dim, n_vert, n_el = (int(t) for t in tokens[0].split())
    vertices = np.array(
        [[float(c) for c in tokens[1 + i].split()] for i in range(n_vert)]
    )
    elements = np.array(
        [[int(c) for c in tokens[1 + n_vert + i].split()] for i in range(n_el)],
        dtype=np.int64,
    )
    if vertices.shape != (n_vert, dim) or elements.shape != (n_el, dim + 1):
        raise ValueError("malformed mesh file")
    return _make_mesh(dim, vertices, elements)
