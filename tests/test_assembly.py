import itertools

import numpy as np
import pytest

from helpers import element_pair_laplacian, fd_gradient, random_rotation, rel_err
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
    energy_and_gradient,
    energy_gradient,
    split_pinned,
    total_energy,
)
from polynet.chains import ChainParams, PairPotential
from polynet.meshing import (
    Mesh,
    StochasticLatticeSpec,
    boundary_layer,
    build_stochastic_mesh,
    periodic_mesh_2d,
    periodic_mesh_3d,
)
from polynet.volumetric import VolumetricParams, w_vol_eta_j

SPRING = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
CHAIN = EnergyModel(pair=PairPotential.langevin_chain())


def test_rest_energy_2d_hand_count():
    # 2 triangles, weight h^2 = 1/2, 3 pairs each, stretch 1 everywhere
    mesh = periodic_mesh_2d(1)
    assert total_energy(mesh, mesh.vertices, SPRING) == 3.0


def test_rest_energy_chain_closed_form():
    mesh = periodic_mesh_3d(2)
    w1 = PairPotential.langevin_chain().energy(1.0)
    expected = mesh.num_elements * (1.0 / mesh.num_elements) * 6 * 1.0 * w1
    got = total_energy(mesh, mesh.vertices, CHAIN)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_f_scales_pair_term():
    mesh = periodic_mesh_2d(2)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=2.5)
    assert abs(total_energy(mesh, mesh.vertices, model) - 2.5 * 3.0) <= 1e-12


def test_frame_indifference_of_energy():
    rng = np.random.default_rng(42)
    for dim, mesh in ((2, periodic_mesh_2d(2)), (3, periodic_mesh_3d(2))):
        model = EnergyModel(
            pair=PairPotential.langevin_chain(),
            vol=VolumetricParams(K=1.0, eta=0.2),
        )
        state = mesh.vertices + 0.05 * rng.standard_normal(mesh.vertices.shape)
        e0 = total_energy(mesh, state, model)
        R = random_rotation(dim, rng)
        t = rng.standard_normal(dim)
        e1 = total_energy(mesh, state @ R.T + t, model)
        assert abs(e1 - e0) <= 1e-10 * abs(e0)


def test_translation_invariance_of_gradient():
    mesh = periodic_mesh_2d(3)
    rng = np.random.default_rng(1)
    state = mesh.vertices + 0.05 * rng.standard_normal(mesh.vertices.shape)
    g0 = energy_gradient(mesh, state, SPRING)
    g1 = energy_gradient(mesh, state + np.array([0.37, -1.2]), SPRING)
    assert np.max(np.abs(g1 - g0)) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        SPRING,
        CHAIN,
        EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                    vol=VolumetricParams(K=2.0, eta=0.2)),
        EnergyModel(pair=PairPotential.langevin_chain(),
                    vol=VolumetricParams(K=2.0, eta=0.2)),
    ],
)
@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_matches_finite_differences(model, dim):
    mesh = periodic_mesh_2d(2) if dim == 2 else periodic_mesh_3d(1)
    rng = np.random.default_rng(dim)
    state = mesh.vertices + 0.03 * rng.standard_normal(mesh.vertices.shape)
    g = energy_gradient(mesh, state, model)
    fd = fd_gradient(lambda s: total_energy(mesh, s, model), state)
    assert rel_err(fd, g) <= 1e-5


def test_affine_state_gradient_matches_fd_full_model():
    mesh = periodic_mesh_3d(2)
    xi = np.eye(3) + 0.1 * np.random.default_rng(3).standard_normal((3, 3))
    state = mesh.vertices @ xi.T
    model = EnergyModel(pair=PairPotential.langevin_chain(),
                        vol=VolumetricParams(K=1.0, eta=0.1))
    g = energy_gradient(mesh, state, model)
    fd = fd_gradient(lambda s: total_energy(mesh, s, model), state)
    assert rel_err(fd, g) <= 1e-5


def test_energy_additivity_against_single_element_meshes():
    mesh = periodic_mesh_2d(2)
    rng = np.random.default_rng(5)
    state = mesh.vertices + 0.05 * rng.standard_normal(mesh.vertices.shape)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0))
    total = total_energy(mesh, state, model)
    singles = []
    for tri in mesh.elements:
        sub = Mesh(
            dim=2,
            vertices=mesh.vertices[tri],
            elements=np.array([[0, 1, 2]]),
            h=mesh.h,  # keeps the parent's pair weight h^dim
            boundary_flags=np.zeros(3),
        )
        singles.append(total_energy(sub, state[tri], model))
    assert abs(total - sum(singles)) <= 1e-12 * abs(total)


def test_inverted_element_error_names_element():
    mesh = periodic_mesh_3d(1)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                        vol=VolumetricParams(K=1.0, eta=0.0))
    state = mesh.vertices.copy()
    state[-1] = -2.0 * state[-1] - 0.5  # drag one corner through the cube
    with pytest.raises(InvertedElementError, match="element"):
        total_energy(mesh, state, model)
    with pytest.raises(InvertedElementError):
        energy_gradient(mesh, state, model)
    # the cut-off makes the same state admissible
    model_eta = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                            vol=VolumetricParams(K=1.0, eta=0.1))
    assert np.isfinite(total_energy(mesh, state, model_eta))


def test_coincident_vertices_error():
    mesh = periodic_mesh_2d(1)
    state = mesh.vertices.copy()
    state[1] = state[0]
    with pytest.raises(CoincidentVerticesError):
        energy_gradient(mesh, state, SPRING)
    # the energy itself is still defined at stretch 0
    assert np.isfinite(total_energy(mesh, state, SPRING))


def test_apply_bc_affine_layer():
    mesh = periodic_mesh_3d(4)
    bc = BoundaryCondition(kind="affine-layer", xi=np.eye(3), depth=2.0 * mesh.h)
    mask, values = apply_bc(mesh, bc)
    np.testing.assert_array_equal(
        np.flatnonzero(mask), boundary_layer(mesh, 2.0 * mesh.h)
    )
    np.testing.assert_allclose(values[mask], mesh.vertices[mask])


def test_apply_bc_fully_constrained():
    mesh = periodic_mesh_3d(2)
    bc = BoundaryCondition(kind="affine-layer", xi=np.eye(3), depth=0.5)
    with pytest.raises(FullyConstrainedError):
        apply_bc(mesh, bc)


def test_apply_bc_faces():
    mesh = periodic_mesh_3d(2)
    xi = np.diag([1.3, 1.0, 1.0])
    bc = BoundaryCondition(
        kind="dirichlet-face-free-traction", xi=xi, faces=("x-", "x+")
    )
    mask, values = apply_bc(mesh, bc)
    expected = (mesh.vertices[:, 0] == 0.0) | (mesh.vertices[:, 0] == 1.0)
    np.testing.assert_array_equal(mask, expected)
    np.testing.assert_allclose(values[mask], (mesh.vertices @ xi.T)[mask])
    with pytest.raises(ValueError):
        apply_bc(mesh, BoundaryCondition(
            kind="dirichlet-face-free-traction", xi=xi, faces=("w-",)
        ))


def test_apply_bc_face_beyond_dim_rejected():
    mesh = periodic_mesh_2d(2)
    bc = BoundaryCondition(kind="dirichlet-face-free-traction", xi=np.eye(2),
                           faces=("x-", "z-"))
    with pytest.raises(ValueError, match=r"face 'z-' out of range for dim 2"):
        apply_bc(mesh, bc)


def test_zero_length_reference_edge_rejected():
    # a Mesh built around validate(): vertices 0 and 1 coincide
    vertices = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(dim=2, vertices=vertices, elements=np.array([[0, 1, 2]]), h=1.0,
                boundary_flags=np.zeros(3))
    with pytest.raises(ValueError, match="mesh contains zero-length reference edges"):
        total_energy(mesh, vertices, SPRING)

def test_bc_validation():
    with pytest.raises(ValueError):
        BoundaryCondition(kind="affine-layer", xi=np.eye(2))  # no depth
    with pytest.raises(ValueError):
        BoundaryCondition(kind="affine-layer", xi=np.eye(2), depth=float("nan"))
    with pytest.raises(ValueError):
        BoundaryCondition(kind="dirichlet-face-free-traction", xi=np.eye(2))
    with pytest.raises(ValueError):
        BoundaryCondition(kind="affine-layer", xi=np.array([[np.inf, 0], [0, 1]]),
                          depth=0.1)
    with pytest.raises(ValueError):
        BoundaryCondition(kind="weird", xi=np.eye(2), depth=0.1)


def test_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=0.0)


# --- agreement with the per-pair np.add.at kernel ----------------------
# The kernel sums edge weights, evaluates each unique edge once and forms
# determinants and cofactors in closed form, so it reorders the roundoff of
# this oracle; it must agree within 1e-13 of the largest value.

ORACLE_BOUND = 1e-13


def assert_matches_oracle(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert np.abs(got - expected).max() <= ORACLE_BOUND * np.abs(expected).max()


def _pairs(mesh):
    combos = list(itertools.combinations(range(mesh.dim + 1), 2))
    i = np.concatenate([mesh.elements[:, a] for a, _ in combos])
    j = np.concatenate([mesh.elements[:, b] for _, b in combos])
    return len(combos), i, j


def _weights(mesh):
    return np.full(mesh.num_elements, 1.0 / mesh.num_elements)


def _jacobians(mesh, positions):
    def edge_matrices(points):
        p = points[mesh.elements]
        return np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)

    xmat, vmat = edge_matrices(mesh.vertices), edge_matrices(positions)
    return np.linalg.det(vmat) / np.linalg.det(xmat), vmat, np.linalg.inv(xmat)


def oracle_element_energies(mesh, positions, model):
    """Every pair evaluated on its own, no caching."""
    n_pairs, i, j = _pairs(mesh)
    rest = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j], axis=1)
    stretch = np.linalg.norm(positions[i] - positions[j], axis=1) / rest
    pair_w = np.asarray(model.pair.energy(stretch), dtype=float)
    per_elem = model.f * pair_w.reshape(n_pairs, mesh.num_elements).sum(axis=0)
    energies = _weights(mesh) * per_elem
    if model.vol is not None:
        jac, _, _ = _jacobians(mesh, positions)
        energies = energies + mesh.element_volumes() * w_vol_eta_j(jac, model.vol)
    return energies


def oracle_gradient(mesh, positions, model):
    """Per-pair terms scattered with sequential np.add.at calls."""
    n_pairs, i, j = _pairs(mesh)
    grad = np.zeros_like(positions)
    rest = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j], axis=1)
    delta = positions[i] - positions[j]
    dist = np.linalg.norm(delta, axis=1)
    dW = np.asarray(model.pair.derivative(dist / rest), dtype=float)
    weights = np.tile(_weights(mesh), n_pairs)
    contrib = (weights * model.f * dW / (rest * dist))[:, None] * delta
    np.add.at(grad, i, contrib)
    np.add.at(grad, j, -contrib)
    if model.vol is not None:
        vol = model.vol
        jac, vmat, xinv = _jacobians(mesh, positions)
        active = jac > vol.eta
        xinv = xinv[active]
        f_def = vmat[active] @ xinv
        cof = np.empty_like(f_def)
        if mesh.dim == 2:
            cof[:, 0, 0], cof[:, 0, 1] = f_def[:, 1, 1], -f_def[:, 1, 0]
            cof[:, 1, 0], cof[:, 1, 1] = -f_def[:, 0, 1], f_def[:, 0, 0]
        else:
            for k in range(3):
                cof[:, :, k] = np.cross(f_def[:, :, (k + 1) % 3], f_def[:, :, (k + 2) % 3])
        scale = 0.25 * vol.K * (2.0 * jac[active] - 1.0 / jac[active])
        g_vol = scale[:, None, None] * cof
        moment = mesh.element_volumes()[active, None, None] * g_vol @ np.swapaxes(xinv, 1, 2)
        els = mesh.elements[active]
        for k in range(mesh.dim):
            np.add.at(grad, els[:, k + 1], moment[:, :, k])
        np.add.at(grad, els[:, 0], -moment.sum(axis=2))
    return grad


LANGEVIN_VOL = EnergyModel(
    pair=PairPotential.langevin_chain(), vol=VolumetricParams(K=1.0, eta=0.1)
)


def _stochastic_mesh(kind, dim, h):
    spec = StochasticLatticeSpec(kind=kind, intensity=1.0, r_min=0.3, R_cov=1.0, seed=3)
    return build_stochastic_mesh(spec, h, dim)


@pytest.mark.parametrize(
    "kind, dim, h, model",
    [
        ("jittered-grid", 3, 0.25, LANGEVIN_VOL),
        ("matern-hardcore", 2, 0.1, SPRING),
        ("matern-hardcore", 2, 0.1, LANGEVIN_VOL),
    ],
)
def test_kernel_matches_per_pair_oracle(kind, dim, h, model):
    mesh = _stochastic_mesh(kind, dim, h)
    rng = np.random.default_rng(11)
    plateau_seen = False
    for amplitude in (0.0, 0.05, 0.2, 0.4):
        state = mesh.vertices + amplitude * mesh.h * rng.standard_normal(mesh.vertices.shape)
        if model.vol is not None:
            jac, _, _ = _jacobians(mesh, state)
            plateau_seen |= bool(np.any(jac <= model.vol.eta))
        expected = oracle_element_energies(mesh, state, model).sum()
        assert_matches_oracle(total_energy(mesh, state, model), expected)
        assert_matches_oracle(
            energy_gradient(mesh, state, model), oracle_gradient(mesh, state, model)
        )
    assert plateau_seen or model.vol is None


@pytest.mark.parametrize("model", [SPRING, CHAIN, LANGEVIN_VOL],
                         ids=["spring", "langevin", "langevin+vol"])
def test_energy_and_gradient_equal_separate_calls_bitwise(model):
    rng = np.random.default_rng(11)
    for kind, dim, h in (("matern-hardcore", 2, 0.1), ("jittered-grid", 3, 0.25)):
        mesh = _stochastic_mesh(kind, dim, h)
        state = mesh.vertices + 0.05 * mesh.h * rng.standard_normal(mesh.vertices.shape)
        energy, grad = energy_and_gradient(mesh, state, model)
        assert energy == total_energy(mesh, state, model)
        np.testing.assert_array_equal(grad, energy_gradient(mesh, state, model))


def test_state_cache_follows_in_place_mutation():
    # no state outlives a call: results follow the positions passed in
    mesh = _stochastic_mesh("matern-hardcore", 2, 0.1)
    rng = np.random.default_rng(12)
    state = mesh.vertices + 0.05 * mesh.h * rng.standard_normal(mesh.vertices.shape)
    total_energy(mesh, state, LANGEVIN_VOL)
    energy_gradient(mesh, state, LANGEVIN_VOL)
    state[3] += 0.01 * mesh.h
    assert_matches_oracle(
        total_energy(mesh, state, LANGEVIN_VOL),
        oracle_element_energies(mesh, state, LANGEVIN_VOL).sum(),
    )
    assert_matches_oracle(
        energy_gradient(mesh, state, LANGEVIN_VOL),
        oracle_gradient(mesh, state, LANGEVIN_VOL),
    )


def test_state_cache_alternating_models():
    # no state outlives a call: results follow the model passed in
    mesh = _stochastic_mesh("jittered-grid", 3, 0.25)
    rng = np.random.default_rng(13)
    state = mesh.vertices + 0.1 * mesh.h * rng.standard_normal(mesh.vertices.shape)
    for _ in range(2):
        for model in (SPRING, LANGEVIN_VOL, CHAIN):
            assert_matches_oracle(
                total_energy(mesh, state, model),
                oracle_element_energies(mesh, state, model).sum(),
            )
            assert_matches_oracle(
                energy_gradient(mesh, state, model), oracle_gradient(mesh, state, model)
            )


def test_returned_arrays_are_copies():
    mesh = periodic_mesh_2d(3)
    rng = np.random.default_rng(14)
    state = mesh.vertices + 0.05 * rng.standard_normal(mesh.vertices.shape)
    grad = energy_gradient(mesh, state, CHAIN)
    expected = grad.copy()
    grad[:] = 7.0
    np.testing.assert_array_equal(energy_gradient(mesh, state, CHAIN), expected)
    _, grad = energy_and_gradient(mesh, state, CHAIN)
    grad[:] = 7.0
    np.testing.assert_array_equal(energy_gradient(mesh, state, CHAIN), expected)


def test_coincident_checked_before_inverted():
    mesh = periodic_mesh_2d(2)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                        vol=VolumetricParams(K=1.0, eta=0.0))
    state = mesh.vertices.copy()
    state[1] = state[0]  # collapses every element that holds the edge 0-1
    with pytest.raises(InvertedElementError):
        total_energy(mesh, state, model)
    with pytest.raises(CoincidentVerticesError):
        energy_gradient(mesh, state, model)
    with pytest.raises(CoincidentVerticesError):
        energy_and_gradient(mesh, state, model)
    # a call at the same positions checks them again
    with pytest.raises(InvertedElementError):
        total_energy(mesh, state, model)


def _split_part(mesh, part):
    """The "active" or "pinned" sub-mesh that split_pinned keeps for the
    cell problem's affine layer of depth 2h."""
    split_pinned(mesh, mesh.boundary_flags > 2.0 * mesh.h, np.eye(mesh.dim), SPRING)
    return mesh._cache["split"][1 if part == "active" else 2]


AFFINE_MESHES = {
    "periodic-2d": lambda: periodic_mesh_2d(4),
    "periodic-3d": lambda: periodic_mesh_3d(3),
    # m = 1: the meshes periodic_density evaluates
    "periodic-2d-m1-nw": lambda: periodic_mesh_2d(1, "nw"),
    "periodic-2d-m1-ne": lambda: periodic_mesh_2d(1, "ne"),
    "periodic-3d-m1": lambda: periodic_mesh_3d(1),
    "periodic-2d-active": lambda: _split_part(periodic_mesh_2d(7, "ne"), "active"),
    "periodic-2d-pinned": lambda: _split_part(periodic_mesh_2d(7, "ne"), "pinned"),
    "periodic-3d-active": lambda: _split_part(periodic_mesh_3d(6), "active"),
    "periodic-3d-pinned": lambda: _split_part(periodic_mesh_3d(6), "pinned"),
    "matern-2d": lambda: _stochastic_mesh("matern-hardcore", 2, 0.1),
    "jittered-3d": lambda: _stochastic_mesh("jittered-grid", 3, 0.25),
}
AFFINE_MODELS = {
    "spring": SPRING,
    "langevin": CHAIN,
    "langevin+vol": LANGEVIN_VOL,
    "langevin+vol-eta0": EnergyModel(pair=PairPotential.langevin_chain(),
                                     vol=VolumetricParams(K=1.0, eta=0.0)),
}


def affine_xis(dim, rng):
    """A strain with det xi near 1 and one with det xi below the cut-off 0.1."""
    rot = random_rotation(dim, rng)
    return [np.eye(dim) + 0.2 * rng.uniform(-1.0, 1.0, (dim, dim)),
            rot @ np.diag([0.3, 0.25, 0.6][:dim])]


def assert_affine_matches_kernel(mesh, xi, model):
    energy = total_energy(mesh, affine_positions(mesh, xi), model)
    assert abs(affine_energy(mesh, xi, model) - energy) <= 1e-13 * abs(energy)


@pytest.mark.parametrize("model", AFFINE_MODELS.values(), ids=AFFINE_MODELS.keys())
@pytest.mark.parametrize("mesh_name", AFFINE_MESHES)
def test_affine_state_matches_kernel(mesh_name, model):
    mesh = AFFINE_MESHES[mesh_name]()
    rng = np.random.default_rng(21)
    dets = []
    for xi in affine_xis(mesh.dim, rng):
        dets.append(np.linalg.det(xi))
        assert_affine_matches_kernel(mesh, xi, model)
    # det xi on both sides of the cut-off: the plateau is covered
    assert min(dets) < 0.1 < max(dets)


@pytest.mark.parametrize("model", AFFINE_MODELS.values(), ids=AFFINE_MODELS.keys())
@pytest.mark.parametrize("dim", [2, 3])
def test_affine_state_on_free_traction_split(dim, model):
    # the vertices off the faces x- and x+ are free, boundary ones included
    mesh = periodic_mesh_2d(4) if dim == 2 else periodic_mesh_3d(3)
    rng = np.random.default_rng(22)
    bc_faces = ("x-", "x+")
    for xi in affine_xis(dim, rng):
        bc = BoundaryCondition(kind="dirichlet-face-free-traction", xi=xi, faces=bc_faces)
        free = ~apply_bc(mesh, bc)[0]
        active, pinned_energy = split_pinned(mesh, free, xi, model)
        pinned = mesh._cache["split"][2]
        positions = affine_positions(mesh, xi)
        expected = total_energy(pinned, positions, model)
        assert abs(pinned_energy - expected) <= 1e-13 * abs(expected)
        assert_affine_matches_kernel(active, xi, model)


def test_affine_state_checks_coincident_then_inverted():
    mesh = periodic_mesh_2d(2)
    model = AFFINE_MODELS["langevin+vol-eta0"]
    # a singular xi collapses edges (coincident) and every element (det 0)
    with pytest.raises(CoincidentVerticesError):
        affine_energy(mesh, np.array([[1.0, 0.0], [0.0, 0.0]]), model)
    with pytest.raises(InvertedElementError, match=r"is inverted \(det = -1\)"):
        affine_energy(mesh, np.diag([-1.0, 1.0]), model)
    # with a cut-off the reflection is on the plateau and evaluates
    assert np.isfinite(affine_energy(mesh, np.diag([-1.0, 1.0]), LANGEVIN_VOL))


def central_difference_second_derivative(pair):
    """W'' as K took it before the analytic second derivative: a central
    difference (step 1e-6) of the pair derivative, clipped below at 1e-8 of
    its maximum."""
    def second(stretch):
        d2w = (pair.derivative(stretch + 1e-6) - pair.derivative(stretch - 1e-6)) / 2e-6
        return np.maximum(d2w, 1e-8 * d2w.max())
    return second


STIFFNESS_MESHES = {
    "matern-2d": ("matern-hardcore", 2, 0.1, np.array([[1.2, 0.05], [0.0, 1.0]])),
    "jittered-3d": ("jittered-grid", 3, 0.125,
                    np.array([[1.2, 0.05, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.9]])),
}


def stiffness_states(mesh_name):
    """A stochastic mesh, its affine state and a perturbed one, and the
    free mask of its 2hR layer."""
    kind, dim, h, xi = STIFFNESS_MESHES[mesh_name]
    mesh = _stochastic_mesh(kind, dim, h)
    rng = np.random.default_rng(5)
    base = affine_positions(mesh, xi)
    free = mesh.boundary_flags > 2.0 * h
    assert free.any()
    return mesh, (base, base + 0.1 * h * rng.standard_normal(base.shape)), free


@pytest.mark.parametrize("mesh_name", sorted(STIFFNESS_MESHES))
def test_spring_stiffness_is_the_2k_weighted_laplacian(mesh_name):
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.5), f=0.7)
    mesh, states, free = stiffness_states(mesh_name)
    for state in states:
        oracle = element_pair_laplacian(
            mesh, state, lambda r: np.full(r.shape, 2.0 * 1.5 * 0.7)).toarray()
        for mask, block in ((None, oracle), (free, oracle[free][:, free])):
            stiffness = edge_stiffness_laplacian(mesh, state, model, mask).toarray()
            assert np.abs(stiffness - block).max() <= 1e-13 * np.abs(block).max()


@pytest.mark.parametrize("mesh_name", sorted(STIFFNESS_MESHES))
@pytest.mark.parametrize("params", [ChainParams(), ChainParams(k=1.3, beta=0.7, n=4.0)],
                         ids=["default", "n4"])
def test_chain_stiffness_matches_central_difference_stiffness(mesh_name, params):
    model = EnergyModel(pair=PairPotential.langevin_chain(params), f=0.7)
    mesh, states, free = stiffness_states(mesh_name)
    second = central_difference_second_derivative(model.pair)
    for state in states:
        expected = element_pair_laplacian(mesh, state, lambda r: model.f * second(r))
        stiffness = edge_stiffness_laplacian(mesh, state, model, free).toarray()
        np.testing.assert_allclose(stiffness, expected.toarray()[free][:, free],
                                   rtol=1e-8, atol=0.0)
