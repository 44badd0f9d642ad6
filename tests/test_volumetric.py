import math

import numpy as np
import pytest

from helpers import fd_gradient, random_rotation
from polynet.volumetric import (
    NonPositiveJacobianError,
    VolumetricParams,
    cofactor_matrix,
    w_vol,
    w_vol_eta,
    w_vol_eta_dj,
    w_vol_eta_j,
    w_vol_gradient,
    w_vol_j,
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
    vals = [w_vol_j(j, K1) for j in (1e-1, 1e-2, 1e-3)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1.0


def test_inverted_without_cutoff_raises():
    F = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NonPositiveJacobianError):
        w_vol(F, K1)
    with pytest.raises(NonPositiveJacobianError):
        w_vol_j(0.0, K1)


def test_scalar_form_matches_matrix_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(F) <= 0:
            continue
        assert abs(w_vol(F, K1) - w_vol_j(np.linalg.det(F), K1)) <= 1e-12


def test_scalar_map_minimum():
    # g(J) = J^2 - 1 - log J attains its minimum -1/2 + log(2)/2 at J = 1/sqrt(2)
    params = VolumetricParams(K=4.0, eta=0.0)  # K/4 = 1 isolates g
    grid = np.linspace(0.01, 3.0, 20001)
    vals = w_vol_j(grid, params)
    expected_min = -0.5 + 0.5 * math.log(2.0)
    assert abs(vals.min() - expected_min) <= 1e-6
    assert abs(grid[np.argmin(vals)] - 1.0 / math.sqrt(2.0)) <= 1e-3


def test_cutoff_constant_branch_value():
    params = VolumetricParams(K=1.0, eta=0.1)
    F = np.diag([1.0, 1.0, -1.0])  # det = -1, constant branch
    val = w_vol_eta(F, params)
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
    assert w_vol_eta(np.eye(3), params) == 0.0
    with pytest.raises(ValueError):
        w_vol_eta(np.eye(3), K1)  # needs eta > 0
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
        with pytest.raises(NonPositiveJacobianError):
            w_vol_eta_dj(J, K1)


def test_gradient_errors():
    with pytest.raises(NonPositiveJacobianError):
        w_vol_gradient(np.zeros((3, 3)), K1)
    with pytest.raises(NonPositiveJacobianError):
        w_vol_gradient(np.diag([1.0, 1.0, -1.0]), K1)


def test_cofactor_matches_det_times_inverse_transpose():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        F = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        expected = np.linalg.det(F) * np.linalg.inv(F).T
        np.testing.assert_allclose(cofactor_matrix(F), expected, rtol=1e-12, atol=1e-12)


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
        assert w_vol_eta(F, params) <= c_eta * (norm**8 + 1.0)
    for t in np.linspace(1e-3, 10.0 / math.sqrt(3.0), 500):
        F = t * np.eye(3)
        assert w_vol_eta(F, params) <= c_eta * (np.linalg.norm(F) ** 8 + 1.0)
