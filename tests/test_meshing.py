import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from polynet.homogenize import StochasticCell
from polynet.meshing import (
    DegenerateGeometryError,
    InfeasibleLatticeError,
    Mesh,
    StochasticLatticeSpec,
    boundary_layer,
    build_stochastic_mesh,
    check_admissibility,
    circumradii,
    delaunay_triangulate,
    element_gradient,
    periodic_mesh_2d,
    periodic_mesh_3d,
    read_mesh,
    rescale_and_clip,
    signed_volumes,
    stochastic_lattice,
    write_mesh,
)

UNIT_2D = (np.zeros(2), np.ones(2))
UNIT_3D = (np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# periodic meshes


def test_periodic_3d_m1():
    mesh = periodic_mesh_3d(1)
    assert mesh.num_elements == 6
    assert abs(mesh.h - (1.0 / 6.0) ** (1.0 / 3.0)) <= 1e-15
    assert abs(mesh.h - 0.55032) <= 1e-5
    assert abs(mesh.element_volumes().sum() - 1.0) <= 1e-12


def test_periodic_3d_m2_counts_and_structure():
    mesh = periodic_mesh_3d(2)
    assert mesh.num_elements == 48
    assert mesh.num_vertices == 27
    # hand check: the 6 tets of every subcube share that cube's main diagonal
    verts = mesh.vertices
    for tet in mesh.elements:
        p = verts[tet]
        lo, hi = p.min(axis=0), p.max(axis=0)
        corners = {tuple(np.round(q * 2).astype(int)) for q in p}
        assert tuple(np.round(lo * 2).astype(int)) in corners
        assert tuple(np.round(hi * 2).astype(int)) in corners
    # exact partition into equal volumes
    np.testing.assert_allclose(mesh.element_volumes(), 1.0 / 48.0, rtol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_periodic_3d_partition_and_orientation(m):
    mesh = periodic_mesh_3d(m)
    vols = signed_volumes(mesh.vertices, mesh.elements)
    assert np.all(vols > 0.0)
    assert abs(vols.sum() - 1.0) <= 1e-12
    assert abs(mesh.h - (1.0 / mesh.num_elements) ** (1.0 / 3.0)) <= 1e-12


def _loop_periodic_elements(m, dim, diagonal="nw"):
    """Element list of the periodic meshes built cell by cell, oriented
    by swapping the last two vertices of negatively oriented elements."""
    n = m + 1
    elements = []
    for cell in itertools.product(range(m), repeat=dim):
        if dim == 3:
            for perm in itertools.permutations(range(3)):
                walk = [np.array(cell)]
                for axis in perm:
                    walk.append(walk[-1] + np.eye(3, dtype=int)[axis])
                elements.append([(p[0] * n + p[1]) * n + p[2] for p in walk])
        else:
            ci, cj = cell
            bl, br = ci * n + cj, (ci + 1) * n + cj
            tl, tr = ci * n + cj + 1, (ci + 1) * n + cj + 1
            if diagonal == "nw":
                elements += [[bl, br, tl], [br, tr, tl]]
            else:
                elements += [[bl, br, tr], [bl, tr, tl]]
    elements = np.array(elements, dtype=np.int64)
    grid = np.arange(n) / m
    vertices = np.stack([g.ravel() for g in np.meshgrid(*[grid] * dim, indexing="ij")], axis=1)
    neg = signed_volumes(vertices, elements) < 0.0
    elements[neg, -2:] = elements[neg, -2:][:, ::-1]
    return vertices, elements


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("dim, diagonal", [(3, None), (2, "nw"), (2, "ne")])
def test_periodic_meshes_match_loop_construction(m, dim, diagonal):
    mesh = periodic_mesh_3d(m) if dim == 3 else periodic_mesh_2d(m, diagonal)
    vertices, elements = _loop_periodic_elements(m, dim, diagonal)
    np.testing.assert_array_equal(mesh.vertices, vertices)
    np.testing.assert_array_equal(mesh.elements, elements)
    assert mesh.elements.dtype == np.int64


def test_periodic_2d_m1():
    mesh = periodic_mesh_2d(1, "nw")
    assert mesh.num_elements == 2
    assert mesh.num_vertices == 4
    assert np.all(signed_volumes(mesh.vertices, mesh.elements) > 0.0)


def test_periodic_2d_partition():
    mesh = periodic_mesh_2d(3)
    assert mesh.num_elements == 18
    assert abs(mesh.element_volumes().sum() - 1.0) <= 1e-12


def _cell_edge_multiset(mesh, m):
    """Sorted edge-direction multiset per cell, in lattice units."""
    cells = {}
    for tri in mesh.elements:
        p = mesh.vertices[tri] * m
        cell = tuple(np.floor(p.mean(axis=0)).astype(int))
        edges = cells.setdefault(cell, [])
        for a, b in itertools.combinations(range(3), 2):
            d = p[b] - p[a]
            if tuple(d) < tuple(-d):
                d = -d
            edges.append(tuple(np.round(d).astype(int)))
    return {cell: sorted(edges) for cell, edges in cells.items()}


def test_periodic_2d_cells_are_translates():
    m = 4
    mesh = periodic_mesh_2d(m, "nw")
    multisets = list(_cell_edge_multiset(mesh, m).values())
    assert len(multisets) == m * m
    assert all(ms == multisets[0] for ms in multisets)


def test_periodic_2d_diagonal_choice():
    nw = _cell_edge_multiset(periodic_mesh_2d(1, "nw"), 1)[(0, 0)]
    ne = _cell_edge_multiset(periodic_mesh_2d(1, "ne"), 1)[(0, 0)]
    assert (1, -1) in nw or (-1, 1) in nw
    assert (1, 1) in ne
    assert nw != ne


def test_periodic_validation():
    with pytest.raises(ValueError):
        periodic_mesh_3d(0)
    with pytest.raises(ValueError):
        periodic_mesh_2d(0)
    with pytest.raises(ValueError):
        periodic_mesh_2d(2, "sw")
    for build in (periodic_mesh_2d, periodic_mesh_3d):
        with pytest.raises(ValueError, match="m must be an integer"):
            build(2.5)


# ---------------------------------------------------------------------------
# stochastic lattices


def test_jittered_grid_constructive_bounds():
    spec = StochasticLatticeSpec(
        kind="jittered-grid", intensity=1.0, r_min=0.5, R_cov=1.2, seed=8
    )
    box = (np.zeros(3), 4.0 * np.ones(3))
    pts = stochastic_lattice(spec, box)
    d, _ = cKDTree(pts).query(pts, k=2)
    assert d[:, 1].min() >= 0.5
    # covering of the box within sqrt(3)/2 * s + jitter
    bound = math.sqrt(3.0) / 2.0 + 0.25
    report = check_admissibility(pts, box, r_claim=0.5, R_claim=bound)
    assert report.separation_ok and report.covering_ok


def test_jittered_grid_zero_jitter_is_integer_grid():
    spec = StochasticLatticeSpec(
        kind="jittered-grid", intensity=1.0, r_min=1.0, R_cov=0.9, seed=0
    )
    pts = stochastic_lattice(spec, (np.zeros(3), 3.0 * np.ones(3)))
    assert np.allclose(pts, np.round(pts))
    report = check_admissibility(pts, (np.zeros(3), 3.0 * np.ones(3)), 1.0, 0.9)
    assert report.measured_r == 1.0
    assert report.measured_R <= 0.87
    assert report.covering_ok


def test_integer_grid_covering_bounds():
    grid = np.stack(
        np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    box = (np.zeros(3), 3.0 * np.ones(3))
    ok = check_admissibility(grid, box, r_claim=1.0, R_claim=0.9)
    # the farthest point from Z^3 is a cube center at distance sqrt(3)/2
    assert abs(ok.measured_R - math.sqrt(3.0) / 2.0) <= 1e-9
    assert ok.covering_ok and ok.separation_ok
    bad = check_admissibility(grid, box, r_claim=1.0, R_claim=0.8)
    assert not bad.covering_ok


def test_two_point_separation():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    report = check_admissibility(pts, UNIT_3D, r_claim=1.0, R_claim=2.0)
    assert report.separation_ok
    assert report.measured_r == 1.0


def test_admissibility_sanity_inequality():
    spec = StochasticLatticeSpec(
        kind="matern-hardcore", intensity=20.0, r_min=0.15, R_cov=0.8, seed=4
    )
    pts = stochastic_lattice(spec, UNIT_3D)
    report = check_admissibility(pts, UNIT_3D, r_claim=0.15, R_claim=0.8)
    assert report.measured_r <= 2.0 * report.measured_R


def test_admissibility_needs_two_points():
    with pytest.raises(ValueError):
        check_admissibility(np.zeros((1, 3)), UNIT_3D, 1.0, 1.0)


def test_admissibility_rejects_a_box_of_another_dimension():
    # 3D points in a 2D box used to reach scipy's KD-tree query, which raised
    # "x must consist of vectors of length 3 but has shape (33, 2)"
    rng = np.random.default_rng(0)
    for dim, box_dim in ((3, 2), (2, 3)):
        with pytest.raises(ValueError, match=f"a {box_dim}D box does not fit points"):
            check_admissibility(rng.random((40, dim)),
                                (np.zeros(box_dim), np.ones(box_dim)), 0.3, 0.5)


LATTICE_2D = StochasticLatticeSpec("matern-hardcore", 1.0, 0.3, 1.0, 0)
# (call, message): input checks of the lattice and mesh functions no other test reaches
BAD_LATTICE_INPUTS = {
    "empty box": (lambda: stochastic_lattice(LATTICE_2D, ([0, 0], [0, 1])),
                  "box must be a pair of lo/hi corners with hi > lo"),
    "zero claimed radius": (lambda: check_admissibility(
        np.random.default_rng(0).random((40, 2)), UNIT_2D, 0.0, 0.5),
        "claimed radii must be positive"),
    "zero h": (lambda: build_stochastic_mesh(LATTICE_2D, 0.0, 2), "h must be positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_LATTICE_INPUTS))
def test_bad_lattice_input_rejected(case):
    call, message = BAD_LATTICE_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_matern_separation_and_determinism():
    spec = StochasticLatticeSpec(
        kind="matern-hardcore", intensity=30.0, r_min=0.15, R_cov=0.6, seed=11
    )
    pts = stochastic_lattice(spec, UNIT_3D)
    assert pts.shape[0] >= 4
    d, _ = cKDTree(pts).query(pts, k=2)
    assert d[:, 1].min() >= 0.15
    pts2 = stochastic_lattice(spec, UNIT_3D)
    np.testing.assert_array_equal(pts, pts2)


def test_matern_infeasible_spec_rejected():
    spec = StochasticLatticeSpec(
        kind="matern-hardcore", intensity=30.0, r_min=0.5, R_cov=0.6, seed=1
    )
    with pytest.raises(InfeasibleLatticeError):
        stochastic_lattice(spec, UNIT_3D)


def test_jittered_infeasible_spec_rejected():
    spec = StochasticLatticeSpec(
        kind="jittered-grid", intensity=27.0, r_min=0.5, R_cov=0.5, seed=1
    )
    with pytest.raises(InfeasibleLatticeError):
        stochastic_lattice(spec, UNIT_3D)


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        StochasticLatticeSpec("bogus", 1.0, 0.1, 0.5, 0)
    with pytest.raises(ValueError):
        StochasticLatticeSpec("jittered-grid", -1.0, 0.1, 0.5, 0)
    with pytest.raises(ValueError):
        StochasticLatticeSpec("jittered-grid", 1.0, 0.4, 0.1, 0)  # R <= r/2
    for seed in (2.5, -1, "3"):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            StochasticLatticeSpec("jittered-grid", 1.0, 0.1, 0.5, seed)


def test_rescale_and_clip_basics():
    pts = np.array([[1.9, 0.0, 0.0], [0.5, 0.5, 0.5], [2.5, 0.0, 0.0]])
    out = rescale_and_clip(pts, 0.5, UNIT_3D)
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out[0], [0.95, 0.0, 0.0])
    # h = 1 keeps only the points already inside
    out1 = rescale_and_clip(pts, 1.0, UNIT_3D)
    assert out1.shape == (1, 3)
    with pytest.raises(ValueError):
        rescale_and_clip(pts, 0.0, UNIT_3D)


def test_rescaled_point_count_tracks_intensity():
    # Matern count after rescale+clip is intensity / h^dim within 3 sigma
    intensity, h = 16.0, 0.5
    box_big = (np.zeros(2), np.ones(2) / h)
    mean = intensity / h**2
    for seed in range(20):
        spec = StochasticLatticeSpec(
            kind="matern-hardcore", intensity=intensity, r_min=0.05,
            R_cov=0.5, seed=seed,
        )
        pts = stochastic_lattice(spec, box_big)
        kept = rescale_and_clip(pts, h, UNIT_2D)
        assert abs(kept.shape[0] - mean) <= 3.0 * math.sqrt(mean)


# ---------------------------------------------------------------------------
# Delaunay


def test_delaunay_single_tet():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    mesh = delaunay_triangulate(pts)
    assert mesh.num_elements == 1
    assert signed_volumes(mesh.vertices, mesh.elements)[0] > 0.0


def test_delaunay_square_plus_center():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    mesh = delaunay_triangulate(pts)
    assert mesh.num_elements == 4


def _circumcenters(points, simplices):
    p = points[simplices]
    a = 2.0 * (p[:, 1:, :] - p[:, :1, :])
    b = (p[:, 1:, :] ** 2).sum(axis=2) - (p[:, :1, :] ** 2).sum(axis=2)
    return np.linalg.solve(a, b[:, :, None])[:, :, 0]


def _empty_circumsphere_violations(points, mesh, tol=1e-9):
    centers = _circumcenters(points, mesh.elements)
    radii = np.linalg.norm(centers - points[mesh.elements[:, 0]], axis=1)
    violations = 0
    for c, r in zip(centers, radii):
        dist = np.linalg.norm(points - c, axis=1)
        violations += int(np.any(dist < r - tol))
    return violations


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_delaunay_empty_circumsphere_bruteforce(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((50, 3))
    mesh = delaunay_triangulate(pts)
    assert _empty_circumsphere_violations(pts, mesh) == 0
    assert abs(mesh.element_volumes().sum() - ConvexHull(pts).volume) <= 1e-8


def test_delaunay_order_independent():
    rng = np.random.default_rng(7)
    pts = rng.random((40, 2))
    mesh_a = delaunay_triangulate(pts)
    perm = rng.permutation(40)
    mesh_b = delaunay_triangulate(pts[perm])
    inv = np.argsort(perm)

    def canon(elements, relabel=None):
        els = elements if relabel is None else relabel[elements]
        return {tuple(sorted(el)) for el in els}

    assert canon(mesh_a.elements) == canon(mesh_b.elements, perm)
    del inv


def test_delaunay_degenerate_input_rejected():
    line = np.stack([np.linspace(0, 1, 5), np.zeros(5)], axis=1)
    with pytest.raises(DegenerateGeometryError):
        delaunay_triangulate(line)
    plane = np.concatenate([np.random.default_rng(0).random((10, 2)),
                            np.zeros((10, 1))], axis=1)
    with pytest.raises(DegenerateGeometryError):
        delaunay_triangulate(plane)
    with pytest.raises(DegenerateGeometryError):
        delaunay_triangulate(np.zeros((2, 3)))


def test_build_stochastic_mesh_pipeline():
    spec = StochasticLatticeSpec(
        kind="jittered-grid", intensity=27.0, r_min=0.2, R_cov=0.4, seed=3
    )
    mesh = build_stochastic_mesh(spec, h=0.5, dim=3)
    assert mesh.dim == 3
    assert np.all(signed_volumes(mesh.vertices, mesh.elements) > 0.0)
    hull = ConvexHull(mesh.vertices).volume
    assert abs(mesh.element_volumes().sum() - hull) <= 1e-8
    assert mesh.vertices.min() >= 0.0 and mesh.vertices.max() <= 1.0


# ---------------------------------------------------------------------------
# interpolation and boundary layers


def test_element_gradient_reproduces_affine():
    mesh = periodic_mesh_3d(2)
    g = element_gradient(mesh, 5, mesh.vertices)
    np.testing.assert_allclose(g, np.eye(3), atol=1e-12)
    xi = np.array([[1.2, 0.3, 0.0], [0.0, 0.9, -0.1], [0.2, 0.0, 1.1]])
    g2 = element_gradient(mesh, 17, mesh.vertices @ xi.T)
    np.testing.assert_allclose(g2, xi, atol=1e-12)


def test_element_gradient_matches_interpolant_differences():
    mesh = periodic_mesh_2d(3)
    rng = np.random.default_rng(4)
    values = rng.random((mesh.num_vertices, 2))
    e = 7
    tri = mesh.elements[e]
    p = mesh.vertices[tri]
    v = values[tri]

    def interp(point):
        # barycentric solve, independent of the gradient formula
        mat = np.vstack([p.T, np.ones(3)])
        lam = np.linalg.solve(mat, np.append(point, 1.0))
        return lam @ v

    g = element_gradient(mesh, e, values)
    centroid = p.mean(axis=0)
    eps = 1e-6
    for axis in range(2):
        dp = np.zeros(2)
        dp[axis] = eps
        fd = (interp(centroid + dp) - interp(centroid - dp)) / (2 * eps)
        assert np.linalg.norm(fd - g[:, axis]) <= 1e-8


def test_element_gradient_degenerate():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 3], [0, 1, 2]])
    mesh = Mesh(
        dim=2, vertices=verts, elements=elements,
        h=(1.0 / 2.0) ** 0.5, boundary_flags=np.zeros(4),
    )
    with pytest.raises(DegenerateGeometryError):
        element_gradient(mesh, 1, verts)


def test_boundary_layer_rules():
    mesh = periodic_mesh_3d(4)
    on_boundary = boundary_layer(mesh, 0.0)
    expected = np.flatnonzero(
        np.minimum(mesh.vertices, 1.0 - mesh.vertices).min(axis=1) == 0.0
    )
    np.testing.assert_array_equal(on_boundary, expected)
    assert boundary_layer(mesh, 0.5).size == mesh.num_vertices
    # brute force 2h layer
    depth = 2.0 * mesh.h
    brute = [
        i
        for i, v in enumerate(mesh.vertices)
        if min(min(v), min(1.0 - v)) <= depth
    ]
    np.testing.assert_array_equal(boundary_layer(mesh, depth), np.array(brute))
    for bad in (-0.1, np.nan):  # NaN used to give an empty layer
        with pytest.raises(ValueError, match="depth"):
            boundary_layer(mesh, bad)


# ---------------------------------------------------------------------------
# mesh file format


def test_mesh_io_roundtrip(tmp_path):
    mesh = periodic_mesh_2d(3)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    again = read_mesh(path)
    np.testing.assert_array_equal(mesh.elements, again.elements)
    np.testing.assert_array_equal(mesh.vertices, again.vertices)
    assert mesh.h == again.h
    # deterministic serialization
    path2 = tmp_path / "mesh2.txt"
    write_mesh(again, path2)
    assert path.read_bytes() == path2.read_bytes()
    # an element index outside [0, N) is rejected: -1 written for the last
    # vertex N - 1 would wrap to it and load the same mesh, and N would
    # escape as an IndexError
    small = periodic_mesh_2d(2)
    n = small.num_vertices
    write_mesh(small, path)
    lines = path.read_text().split("\n")
    k = 1 + n + int(np.flatnonzero((small.elements == n - 1).any(axis=1))[0])
    for bad in (-1, n):
        edited = lines.copy()
        edited[k] = " ".join(str(bad) if t == str(n - 1) else t for t in lines[k].split())
        path2.write_text("\n".join(edited))
        with pytest.raises(ValueError, match="malformed mesh file"):
            read_mesh(path2)
    # a file with fewer lines than its header promises used to escape as
    # an IndexError, and one cut within a line as numpy's ValueError
    for kept in (0, 1, 1 + n, len(lines) - 2):
        path2.write_text("\n".join(lines[:kept]) + "\n")
        with pytest.raises(ValueError, match="malformed mesh file"):
            read_mesh(path2)
    path2.write_text(path.read_text()[:-3])
    with pytest.raises(ValueError, match="malformed mesh file"):
        read_mesh(path2)


def test_mesh_file_of_bad_geometry_rejected(tmp_path):
    # read_mesh validates what it loads: a negatively oriented element, and
    # a vertex outside the closed unit box
    path = tmp_path / "mesh.txt"
    vertices = ["0 0", "1 0", "0 1"]
    path.write_text("\n".join(["2 3 1", *vertices, "0 2 1"]) + "\n")
    with pytest.raises(DegenerateGeometryError, match="non-positively oriented"):
        read_mesh(path)
    path.write_text("\n".join(["2 3 1", "0 0", "1.5 0", "0 1", "0 1 2"]) + "\n")
    with pytest.raises(ValueError, match="mesh vertices leave the closed unit box"):
        read_mesh(path)
    path.write_text("\n".join(["2 3 1", *vertices, "0 1 2"]) + "\n")
    assert read_mesh(path).num_elements == 1


def test_mesh_file_of_other_dimension_rejected(tmp_path):
    # a 1D file used to escape as an IndexError, and a 4D file to load
    path = tmp_path / "mesh.txt"
    for dim in (1, 4):
        vertices = np.vstack([np.zeros(dim), np.eye(dim)])
        lines = [f"{dim} {dim + 1} 1", *(" ".join(map(str, v)) for v in vertices),
                 " ".join(map(str, range(dim + 1)))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed mesh file"):
            read_mesh(path)


def test_point_sets_of_other_dimension_rejected():
    # a 4D jittered grid used to give 113 elements whose volumes, formed from
    # 3 of the 4 edge components, summed to 0.238; a 1D point set got qhull's
    # "Need at least 2-D data"
    spec = StochasticLatticeSpec("jittered-grid", 1.0, 0.3, 1.0, 3)
    rng = np.random.default_rng(4)
    for dim in (1, 4):
        message = f"2D or 3D, not {dim}D"
        with pytest.raises(ValueError, match=message):
            build_stochastic_mesh(spec, 0.5, dim)
        with pytest.raises(ValueError, match=message):
            StochasticCell(spec, 0.5, dim=dim).mesh()
        with pytest.raises(ValueError, match=message):
            delaunay_triangulate(rng.random((40, dim)))
        with pytest.raises(ValueError, match=message):
            check_admissibility(rng.random((40, dim)), (np.zeros(dim), np.ones(dim)), 0.3, 0.5)
        with pytest.raises(ValueError, match=message):
            signed_volumes(np.vstack([np.zeros(dim), np.eye(dim)]), np.arange(dim + 1)[None])


def test_mesh_validation_catches_bad_h():
    mesh = periodic_mesh_2d(2)
    broken = Mesh(
        dim=2, vertices=mesh.vertices, elements=mesh.elements,
        h=0.5, boundary_flags=mesh.boundary_flags,
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_signed_volume_helper():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    els = np.array([[0, 1, 2], [0, 2, 1]])
    vols = signed_volumes(verts, els)
    np.testing.assert_allclose(vols, [0.5, -0.5])


@pytest.mark.parametrize("dim", [2, 3])
def test_signed_volumes_closed_form(dim):
    # explicit products agree with LAPACK's determinant, and swapping the
    # last two vertices negates them exactly, as mesh orientation relies on
    rng = np.random.default_rng(dim)
    verts = rng.random((50, dim))
    els = np.array([rng.choice(50, dim + 1, replace=False) for _ in range(200)])
    vols = signed_volumes(verts, els)
    p = verts[els]
    ref = np.linalg.det(np.swapaxes(p[:, 1:] - p[:, :1], 1, 2)) / math.factorial(dim)
    assert np.abs(vols - ref).max() <= 1e-14 * np.abs(ref).max()
    swapped = els[:, [*range(dim - 1), dim, dim - 1]]
    np.testing.assert_array_equal(signed_volumes(verts, swapped), -vols)


def test_circumradii_known_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    r = circumradii(pts, np.array([[0, 1, 2]]))
    assert abs(r[0] - 0.5) <= 1e-12
