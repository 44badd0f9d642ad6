import math

import numpy as np
import pytest

from helpers import fd_gradient, random_rotation
from polynet.meshing import cofactors
from polynet.volumetric import (
    InvertedElementError,
    VolumetricParams,
    w_vol,
    w_vol_eta_dj,
    w_vol_eta_j,
    w_vol_gradient,
)

K1 = VolumetricParams(K=1.0, eta=0.0)


def test_identity_gives_zero():
    assert w_vol(np.eye(3), K1) == 0.0
    assert w_vol(np.eye(2), K1) == 0.0


def test_uniform_doubling_value():
    # (64 - 1 - log 8) / 4 by direct arithmetic
    val = w_vol(2.0 * np.eye(3), K1)
    assert abs(val - 15.230139614580041) <= 1e-12
    assert abs(val - 15.23014) <= 1e-4


def test_blow_up_as_j_to_zero():
    vals = [w_vol_eta_j(j, K1) for j in (1e-1, 1e-2, 1e-3)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1.0


def test_inverted_without_cutoff_raises():
    F = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvertedElementError):
        w_vol(F, K1)
    with pytest.raises(InvertedElementError):
        w_vol_eta_j(0.0, K1)


def test_scalar_form_matches_matrix_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(F) <= 0:
            continue
        assert abs(w_vol(F, K1) - w_vol_eta_j(np.linalg.det(F), K1)) <= 1e-12


def test_scalar_map_minimum():
    # g(J) = J^2 - 1 - log J attains its minimum -1/2 + log(2)/2 at J = 1/sqrt(2)
    params = VolumetricParams(K=4.0, eta=0.0)  # K/4 = 1 isolates g
    grid = np.linspace(0.01, 3.0, 20001)
    vals = w_vol_eta_j(grid, params)
    expected_min = -0.5 + 0.5 * math.log(2.0)
    assert abs(vals.min() - expected_min) <= 1e-6
    assert abs(grid[np.argmin(vals)] - 1.0 / math.sqrt(2.0)) <= 1e-3


def test_cutoff_constant_branch_value():
    params = VolumetricParams(K=1.0, eta=0.1)
    F = np.diag([1.0, 1.0, -1.0])  # det = -1, constant branch
    val = w_vol(F, params)
    assert abs(val - (0.01 - 1.0 - math.log(0.1)) / 4.0) <= 1e-12
    assert abs(val - 0.3282) <= 1e-4


def test_cutoff_is_continuous_at_seam():
    params = VolumetricParams(K=1.0, eta=0.3)
    below = w_vol_eta_j(params.eta - 1e-9, params)
    above = w_vol_eta_j(params.eta + 1e-9, params)
    seam = w_vol_eta_j(params.eta, params)
    assert abs(above - below) <= 1e-7 * params.K
    assert seam == below  # the seam sits on the plateau


def test_cutoff_identity_zero_and_validation():
    params = VolumetricParams(K=2.5, eta=0.7)
    assert w_vol(np.eye(3), params) == 0.0
    with pytest.raises(ValueError):
        VolumetricParams(K=0.0)
    with pytest.raises(ValueError):
        VolumetricParams(K=1.0, eta=1.0)


def test_frame_indifference():
    rng = np.random.default_rng(3)
    params = VolumetricParams(K=1.7, eta=0.0)
    for dim in (2, 3):
        for _ in range(10):
            F = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim))
            if np.linalg.det(F) <= 0:
                continue
            R = random_rotation(dim, rng)
            assert abs(w_vol(R @ F, params) - w_vol(F, params)) <= 1e-12


def test_gradient_identity():
    g = w_vol_gradient(np.eye(3), K1)
    np.testing.assert_allclose(g, 0.25 * np.eye(3), atol=1e-14)


def test_gradient_plateau_is_zero():
    params = VolumetricParams(K=1.0, eta=0.5)
    F = 0.5 * np.eye(3)  # det = 0.125 <= eta
    np.testing.assert_array_equal(w_vol_gradient(F, params), np.zeros((3, 3)))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = VolumetricParams(K=1.3, eta=0.0)
    for dim in (2, 3):
        F = np.eye(dim) + 0.25 * rng.standard_normal((dim, dim))
        F *= (1.5 / np.linalg.det(F)) ** (1.0 / dim)  # det about 1.5
        g = w_vol_gradient(F, params)
        fd = fd_gradient(lambda M: w_vol(M, params), F, eps=1e-7)
        assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)


@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_slope_matches_central_difference_on_both_sides_of_seam(eta):
    params = VolumetricParams(K=1.3, eta=eta)
    step = 1e-6
    grid = [0.05, 0.2, 0.299, 0.301, 0.5, 1.0 / math.sqrt(2.0), 1.0, 2.5]
    for J in grid:
        fd = (w_vol_eta_j(J + step, params) - w_vol_eta_j(J - step, params)) / (2.0 * step)
        assert abs(w_vol_eta_dj(J, params) - fd) <= 1e-8 * (1.0 + abs(fd))
    np.testing.assert_array_equal(w_vol_eta_dj(np.array(grid), params),
                                  [w_vol_eta_dj(J, params) for J in grid])


def test_slope_seam_sits_on_plateau():
    params = VolumetricParams(K=1.0, eta=0.3)
    assert w_vol_eta_dj(params.eta, params) == 0.0
    assert w_vol_eta_dj(-2.0, params) == 0.0
    above = np.nextafter(params.eta, 1.0)
    assert w_vol_eta_dj(above, params) == 0.25 * (2.0 * above - 1.0 / above)
    for J in (0.0, -1.0):
        with pytest.raises(InvertedElementError):
            w_vol_eta_dj(J, K1)


def test_gradient_errors():
    with pytest.raises(InvertedElementError):
        w_vol_gradient(np.zeros((3, 3)), K1)
    with pytest.raises(InvertedElementError):
        w_vol_gradient(np.diag([1.0, 1.0, -1.0]), K1)
    with pytest.raises(ValueError, match="expects a 2x2 or 3x3 matrix"):
        w_vol_gradient(np.eye(4), K1)


def test_cofactor_matches_det_times_inverse_transpose():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        F = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        expected = np.linalg.det(F) * np.linalg.inv(F).T
        np.testing.assert_allclose(np.array(cofactors(list(F.T))[0]).T, expected, rtol=1e-12, atol=1e-12)


def test_upper_growth_bound_with_cutoff():
    # C_eta frozen by a pre-build sweep: the binding ratio is the plateau
    # value 0.3281 at small |F|, so C_eta = 0.5 holds with margin on |F| <= 10
    params = VolumetricParams(K=1.0, eta=0.1)
    rng = np.random.default_rng(123)
    c_eta = 0.5
    for _ in range(2000):
        A = rng.standard_normal((3, 3))
        A /= np.linalg.norm(A)
        F = 10.0 ** rng.uniform(-3, 1) * A
        norm = np.linalg.norm(F)
        assert w_vol(F, params) <= c_eta * (norm**8 + 1.0)
    for t in np.linspace(1e-3, 10.0 / math.sqrt(3.0), 500):
        F = t * np.eye(3)
        assert w_vol(F, params) <= c_eta * (np.linalg.norm(F) ** 8 + 1.0)


# ---------------------------------------------------------------------------
# one density family: the clamped form against the separate branches it folds


def _two_branch_energy(J, params):
    """The density as two branches: the raw form above eta, and below it a
    plateau constant from math.log."""
    J = np.asarray(J, dtype=float)
    K, eta = params.K, params.eta
    if eta == 0.0:
        return 0.25 * K * (J * J - 1.0 - np.log(J))
    plateau = 0.25 * K * (eta * eta - 1.0 - math.log(eta))
    safe = np.where(J > eta, J, 1.0)
    return np.where(J > eta, 0.25 * K * (safe * safe - 1.0 - np.log(safe)), plateau)


def _two_branch_slope(J, params):
    J = np.asarray(J, dtype=float)
    active = J > params.eta
    safe = np.where(active, J, 1.0)
    return np.where(active, 0.25 * params.K * (2.0 * safe - 1.0 / safe), 0.0)


ETAS = [0.0, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.7, 0.999,
        *np.random.default_rng(7).uniform(0.0, 1.0, 40)]


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("K", [1.0, 1.3, 2.5])
def test_clamped_form_matches_two_branch_form(eta, K):
    params = VolumetricParams(K=K, eta=eta)
    seam = [eta, np.nextafter(eta, 2.0), np.nextafter(np.nextafter(eta, 2.0), 2.0),
            np.nextafter(eta, -1.0)]
    J = np.concatenate([np.linspace(-2.0, 4.0, 1201), np.geomspace(1e-8, 50.0, 400), seam,
                        [1.0, np.nextafter(1.0, 0.0), 1.0 / math.sqrt(2.0)]])
    if eta == 0.0:  # 1/J overflows at subnormal J in either form
        J = J[J >= np.finfo(float).tiny]
    got, want = w_vol_eta_j(J, params), _two_branch_energy(J, params)
    active = J > eta
    np.testing.assert_array_equal(got[active], want[active])
    # the plateau is the raw form at s = eta, whose numpy log may differ from
    # math.log(eta) in the last bit; where the two logs agree so do the values
    plateau = got[~active]
    if eta:
        np.testing.assert_array_equal(plateau, w_vol_eta_j(eta, params))
    if eta and np.log(eta) == math.log(eta):
        np.testing.assert_array_equal(plateau, want[~active])
    np.testing.assert_allclose(plateau, want[~active], rtol=0.0, atol=1e-15 * K)
    np.testing.assert_array_equal(w_vol_eta_dj(J, params), _two_branch_slope(J, params))
    for x in (seam[1] if eta else 1e-8, 1.0):  # scalar calls
        assert w_vol_eta_j(x, params) == float(_two_branch_energy(x, params))
        assert w_vol_eta_dj(x, params) == float(_two_branch_slope(x, params))


def test_matrix_density_is_scalar_density_of_det():
    rng = np.random.default_rng(17)
    params = VolumetricParams(K=1.3, eta=0.2)
    for dim in (2, 3):
        for det in (2.0, 1.0, 0.5, 0.2, 0.05, 0.0, -0.7):  # the last four on the plateau
            F = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
            F[:, 0] *= det / np.linalg.det(F)
            assert w_vol(F, params) == w_vol_eta_j(np.linalg.det(F), params)
    plateau = 0.25 * 1.3 * (0.04 - 1.0 - math.log(0.2))
    assert w_vol(np.diag([0.1, 1.0, 1.0]), params) == pytest.approx(plateau)
    assert w_vol(-np.eye(3), params) == pytest.approx(plateau)


def test_frame_indifference_with_cutoff():
    rng = np.random.default_rng(23)
    params = VolumetricParams(K=0.8, eta=0.3)
    for dim in (2, 3):
        for scale in (1.0, 0.5, 0.2):  # det about 1, 0.5^dim, 0.2^dim
            F = scale * (np.eye(dim) + 0.1 * rng.standard_normal((dim, dim)))
            R = random_rotation(dim, rng)
            assert abs(w_vol(R @ F, params) - w_vol(F, params)) <= 1e-12
            np.testing.assert_allclose(w_vol_gradient(R @ F, params),
                                       R @ w_vol_gradient(F, params), atol=1e-12)


def test_every_function_raises_inverted_element_error_without_cutoff():
    F = np.diag([1.0, 1.0, -1.0])
    for J in (0.0, -0.5, np.array([1.0, 0.0]), np.array([2.0, -1.0])):
        for fn in (w_vol_eta_j, w_vol_eta_dj):
            with pytest.raises(InvertedElementError):
                fn(J, K1)
    for fn in (w_vol, w_vol_gradient):
        for bad in (F, np.zeros((3, 3)), np.diag([-1.0, 1.0])):
            with pytest.raises(InvertedElementError):
                fn(bad, K1)


def test_one_inverted_element_error():
    import polynet

    assert polynet.InvertedElementError is polynet.volumetric.InvertedElementError
    assert polynet.assembly.InvertedElementError is polynet.volumetric.InvertedElementError
    assert issubclass(InvertedElementError, ValueError)
