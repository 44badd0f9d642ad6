import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polynet.chains import (
    INV_LANGEVIN_COEFFS,
    _langevin,
    _langevin_prime,
    _log_x_over_sinh,
    ChainParams,
    GrowthBounds,
    PairPotential,
    check_growth_condition,
    inv_langevin_series,
)

UNIT_CHAIN = ChainParams(k=1.0, beta=1.0, c=0.0, n=1.0)
UNIT = PairPotential.langevin_chain(UNIT_CHAIN)


def series_exact(rho: Fraction) -> Fraction:
    c1, c3, c5, c7 = INV_LANGEVIN_COEFFS
    return c1 * rho + c3 * rho**3 + c5 * rho**5 + c7 * rho**7


def test_series_at_one_exact_rational():
    assert series_exact(Fraction(1)) == Fraction(7224, 875)
    assert abs(inv_langevin_series(1.0) - 7224 / 875) <= 1e-12


def test_series_values():
    assert inv_langevin_series(0.0) == 0.0
    expected = float(series_exact(Fraction(1, 10)))
    assert abs(inv_langevin_series(0.1) - expected) <= 1e-15
    assert abs(inv_langevin_series(0.1) - 0.3018170) <= 1e-6


def test_series_is_odd():
    rho = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_array_equal(inv_langevin_series(-rho), -inv_langevin_series(rho))


def test_series_vectorized_matches_scalar():
    rho = np.array([0.0, 0.2, 0.9, 2.5])
    vec = inv_langevin_series(rho)
    assert vec.shape == rho.shape
    for r, v in zip(rho, vec):
        assert inv_langevin_series(float(r)) == v


def test_chain_energy_at_rest_is_limit_value():
    assert UNIT.energy(0.0) == 0.0
    assert PairPotential.langevin_chain(ChainParams(c=1.0, beta=2.0)).energy(0.0) == -0.5
    params = ChainParams(k=3.0, beta=0.5, c=2.0, n=12.0)
    assert PairPotential.langevin_chain(params).energy(0.0) == -4.0


def test_chain_energy_reference_value():
    # x = 8.256, W = 8.256 + log(8.256 / sinh 8.256); high-precision oracle
    assert abs(UNIT.energy(1.0) - 2.8040874567410107) <= 1e-12
    assert abs(UNIT.energy(1.0) - 2.8041) <= 1e-3


def test_chain_energy_scales_with_k_over_beta():
    base = UNIT.energy(0.7)
    params = ChainParams(k=3.0, beta=2.0, c=0.0, n=1.0)
    scaled = PairPotential.langevin_chain(params).energy(0.7)
    assert abs(scaled - 1.5 * base) <= 1e-12 * abs(base)


def test_chain_energy_monotone_for_default_params():
    r = np.linspace(0.0, 5.0, 301)
    w = PairPotential.langevin_chain().energy(r)
    assert np.all(np.diff(w) >= -1e-12)


def test_chain_energy_nonnegative_for_zero_c():
    r = np.linspace(0.0, 4.0, 200)
    w = UNIT.energy(r)
    assert w[0] >= -1e-12
    assert np.all(w[r >= 0.1] > 0.0)


def test_chain_energy_no_overflow_for_large_stretch():
    # x ~ 1.7e12 at r = 50; the log-domain rewrite must stay finite
    w = UNIT.energy(50.0)
    assert np.isfinite(w)
    assert w > 0.0


@pytest.mark.parametrize("n", [1.0, 8.0, 25.0])
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_chain_derivative_matches_finite_differences(r, n):
    params = ChainParams(k=1.0, beta=1.0, c=0.0, n=n)
    eps = 1e-6 * (1.0 + r)
    potential = PairPotential.langevin_chain(params)
    fd = (potential.energy(r + eps) - potential.energy(r - eps)) / (2 * eps)
    d = potential.derivative(r)
    assert abs(d - fd) <= 1e-6 * abs(fd)


def test_chain_derivative_at_origin_is_zero():
    assert UNIT.derivative(0.0) == 0.0
    assert PairPotential.langevin_chain(ChainParams(n=25.0)).derivative(0.0) == 0.0


def test_chain_derivative_reference_value():
    # frozen from a 50-digit evaluation of the analytic formula
    assert abs(UNIT.derivative(0.5) - 1.7966689850288873) <= 1e-12


@pytest.mark.parametrize("k,beta,n", [(1.0, 1.0, 1.0), (2.0, 0.5, 8.0)])
def test_near_origin_derivative_identity(k, beta, n):
    # d/drho of (rho x + log(x/sinh x)) equals x up to the series remainder
    params = ChainParams(k=k, beta=beta, c=0.0, n=n)
    scale = (k / beta) * math.sqrt(n)
    for rho in (1e-3, 1e-2, 1e-4):
        r = rho * math.sqrt(n)
        lhs = PairPotential.langevin_chain(params).derivative(r)
        rhs = scale * inv_langevin_series(rho)
        assert abs(lhs - rhs) <= 1e-8 * scale


def test_quadratic_spring_values():
    assert PairPotential.quadratic_spring(1.0).energy(1.0) == 1.0
    assert PairPotential.quadratic_spring(5.0).energy(0.0) == 0.0
    assert PairPotential.quadratic_spring(3.0).energy(2.0) == 12.0


def test_pair_potential_dispatch():
    chain = PairPotential.langevin_chain(UNIT_CHAIN)
    spring = PairPotential.quadratic_spring(2.0)
    assert abs(chain.energy(1.0) - 2.8040874567410107) <= 1e-12
    assert spring.energy(3.0) == 18.0
    assert spring.derivative(3.0) == 12.0
    with pytest.raises(ValueError):
        PairPotential(kind="bogus")
    with pytest.raises(ValueError):
        PairPotential.quadratic_spring(-1.0)
    assert PairPotential(kind="quadratic-spring").stiffness == 1.0


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(beta=0.0)
    with pytest.raises(ValueError):
        ChainParams(n=-1.0)
    with pytest.raises(ValueError):
        ChainParams(k=0.0)


def test_growth_bounds_validation():
    with pytest.raises(ValueError):
        GrowthBounds(p=1.0, c_lo=1.0, c_hi=1.0)
    with pytest.raises(ValueError):
        GrowthBounds(p=8.0, c_lo=2.0, c_hi=1.0)
    with pytest.raises(ValueError):
        GrowthBounds(p=8.0, c_lo=0.0, c_hi=1.0)


def test_growth_condition_chain_p8():
    # constants frozen by a pre-build sweep: the admissible window is
    # c_lo <= 1.19 (binding near r = 1.8) and c_hi >= 1.60 (binding at r = 10)
    chain = PairPotential.langevin_chain(UNIT_CHAIN)
    report = check_growth_condition(chain, GrowthBounds(8.0, 1.0, 2.0), r_max=10.0)
    assert report.holds
    assert report.worst_violation >= 0.0


def test_growth_condition_chain_violation_detected():
    # c_lo = 1.3 exceeds the admissible 1.19 only in a window around r = 1.8,
    # so the worst margin must be located there
    chain = PairPotential.langevin_chain(UNIT_CHAIN)
    report = check_growth_condition(chain, GrowthBounds(8.0, 1.3, 2.0), r_max=10.0,
                                    samples=4096)
    assert not report.holds
    assert report.worst_violation < 0.0
    assert 1.0 < report.witness < 3.0


def test_growth_condition_spring_upper():
    spring = PairPotential.quadratic_spring(1.0)
    # r^2 <= r^8 + 1 for every r, so c_hi = 1 suffices for the upper bound;
    # pick c_lo tiny so the lower bound cannot interfere on [0, 10]
    report = check_growth_condition(spring, GrowthBounds(8.0, 1e-9, 1.0), r_max=10.0)
    assert report.holds


def test_growth_condition_spring_lower_small_r():
    spring = PairPotential.quadratic_spring(1.0)
    # on [0, 1/2] the -1 offset absorbs c_lo * r^8 entirely
    report = check_growth_condition(spring, GrowthBounds(8.0, 1.0, 1.0), r_max=0.5)
    assert report.holds


def test_growth_condition_input_validation():
    spring = PairPotential.quadratic_spring(1.0)
    with pytest.raises(ValueError):
        check_growth_condition(spring, GrowthBounds(8.0, 1.0, 1.0), r_max=0.0)
    with pytest.raises(ValueError):
        check_growth_condition(spring, GrowthBounds(8.0, 1.0, 1.0), 1.0, samples=1)


def test_small_x_branches_leave_other_entries_bitwise_unchanged():
    # an array with no small x skips the masked branches; its entries equal
    # those computed beside small ones, through the masks
    x = np.linspace(0.06, 3.0, 101)
    mixed = np.concatenate([[0.0, 1e-5, 0.01], x])
    np.testing.assert_array_equal(_log_x_over_sinh(mixed)[3:], _log_x_over_sinh(x))
    np.testing.assert_array_equal(_langevin(mixed)[3:], _langevin(x))
    np.testing.assert_array_equal(_langevin_prime(mixed)[3:], _langevin_prime(x))


@pytest.mark.parametrize("potential", [
    PairPotential.langevin_chain(),
    PairPotential.langevin_chain(ChainParams(k=1.3, beta=0.7, c=0.2, n=4.0)),
    PairPotential.quadratic_spring(1.7),
], ids=["chain", "chain-params", "spring"])
def test_energy_and_derivative_equal_separate_calls_bitwise(potential):
    r = np.concatenate([[0.0, 1e-6, 1e-3], np.linspace(0.01, 2.5, 200)])
    for sample in (r, r[3:]):  # with and without small-x entries
        energy, derivative = potential.energy_and_derivative(sample)
        np.testing.assert_array_equal(energy, potential.energy(sample))
        np.testing.assert_array_equal(derivative, potential.derivative(sample))


@pytest.mark.parametrize("params", [
    ChainParams(),
    UNIT_CHAIN,
    ChainParams(k=1.3, beta=0.7, c=0.2, n=25.0),
], ids=["default", "unit", "n25"])
def test_chain_second_derivative_matches_finite_differences(params):
    # r up to 2 sqrt(n); the smallest r put x below the series seam at 0.05
    potential = PairPotential.langevin_chain(params)
    r = np.concatenate([[1e-3, 1e-2], np.linspace(0.02, 2.0, 100)]) * math.sqrt(params.n)
    assert _series_x(r[0], params) < 0.05 < _series_x(r[-1], params)
    eps = 1e-5 * r
    fd = (potential.derivative(r + eps) - potential.derivative(r - eps)) / (2.0 * eps)
    second = potential.second_derivative(r)
    np.testing.assert_allclose(second, fd, rtol=1e-7, atol=0.0)
    assert np.all(second > 0.0)


def _series_x(r, params):
    return inv_langevin_series(r / math.sqrt(params.n))


def test_second_derivative_values_and_shapes():
    chain = PairPotential.langevin_chain()
    spring = PairPotential.quadratic_spring(1.7)
    # W''(0) = (k/beta)(2x'(0) - L'(0) x'(0)^2) = 2*3 - 9/3
    assert chain.second_derivative(0.0) == 3.0
    # a 50-digit second derivative of the series-substituted energy at r = 1
    assert abs(chain.second_derivative(1.0) - 3.8365316063756137) <= 1e-14
    assert spring.second_derivative(0.4) == 3.4
    for potential in (chain, spring):
        assert isinstance(potential.second_derivative(1.0), float)
        assert potential.second_derivative(np.ones((2, 3))).shape == (2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        large = chain.second_derivative(np.linspace(0.0, 50.0, 5001))
    assert np.all(np.isfinite(large)) and np.all(np.diff(large) > 0.0)
