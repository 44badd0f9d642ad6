import itertools

import numpy as np
import pytest

from helpers import fd_gradient, random_rotation, rel_err
from polynet.assembly import (
    BoundaryCondition,
    CoincidentVerticesError,
    EnergyModel,
    FullyConstrainedError,
    InvertedElementError,
    apply_bc,
    element_energies,
    energy_gradient,
    total_energy,
)
from polynet.chains import ChainParams, PairPotential, chain_energy
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
    w1 = chain_energy(1.0)
    expected = mesh.num_elements * (1.0 / mesh.num_elements) * 6 * 1.0 * w1
    got = total_energy(mesh, mesh.vertices, CHAIN)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_f_scales_pair_term():
    mesh = periodic_mesh_2d(2)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=2.5)
    assert abs(total_energy(mesh, mesh.vertices, model) - 2.5 * 3.0) <= 1e-12


def test_weight_modes_agree_on_uniform_mesh():
    # every periodic element has volume 1/N_el = h^dim, so both modes match
    mesh = periodic_mesh_3d(2)
    rng = np.random.default_rng(0)
    state = mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape)
    paper = total_energy(mesh, state, CHAIN)
    volume = total_energy(
        mesh, state, EnergyModel(pair=CHAIN.pair, weight_mode="element-volume")
    )
    assert abs(paper - volume) <= 1e-12 * abs(paper)


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
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0),
                        weight_mode="element-volume")
    per_element = element_energies(mesh, state, model)
    total = total_energy(mesh, state, model)
    assert abs(total - per_element.sum()) <= 1e-12 * abs(total)
    for e in range(mesh.num_elements):
        tri = mesh.elements[e]
        sub = Mesh(
            dim=2,
            vertices=mesh.vertices[tri],
            elements=np.array([[0, 1, 2]]),
            h=1.0,
            boundary_flags=np.zeros(3),
        )
        e_sub = total_energy(sub, state[tri], model)
        assert abs(e_sub - per_element[e]) <= 1e-12 * max(1.0, abs(e_sub))


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


def test_bc_validation():
    with pytest.raises(ValueError):
        BoundaryCondition(kind="affine-layer", xi=np.eye(2))  # no depth
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
    with pytest.raises(ValueError):
        EnergyModel(pair=PairPotential.quadratic_spring(1.0), weight_mode="odd")


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


def _weights(mesh, model):
    if model.weight_mode == "uniform-h":
        return np.full(mesh.num_elements, 1.0 / mesh.num_elements)
    return mesh.element_volumes()


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
    energies = _weights(mesh, model) * per_elem
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
    weights = np.tile(_weights(mesh, model), n_pairs)
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
        expected = oracle_element_energies(mesh, state, model)
        assert_matches_oracle(element_energies(mesh, state, model), expected)
        assert_matches_oracle(total_energy(mesh, state, model), expected.sum())
        assert_matches_oracle(
            energy_gradient(mesh, state, model), oracle_gradient(mesh, state, model)
        )
    assert plateau_seen or model.vol is None


def test_state_cache_follows_in_place_mutation():
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
    energies = element_energies(mesh, state, CHAIN)
    expected_grad, expected_energies = grad.copy(), energies.copy()
    grad[:] = 7.0
    energies[:] = 7.0
    np.testing.assert_array_equal(energy_gradient(mesh, state, CHAIN), expected_grad)
    np.testing.assert_array_equal(element_energies(mesh, state, CHAIN), expected_energies)


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
    # a cached state does not skip the checks on the next call
    with pytest.raises(InvertedElementError):
        total_energy(mesh, state, model)
