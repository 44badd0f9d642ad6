"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from helpers import fd_gradient, random_rotation, rel_err, single_cell_oracle_2d
from polynet.assembly import EnergyModel, energy_gradient, total_energy
from polynet.chains import (
    INV_LANGEVIN_COEFFS,
    ChainParams,
    GrowthBounds,
    PairPotential,
    check_growth_condition,
    inv_langevin_series,
)
from polynet.homogenize import (
    CellProblem,
    PeriodicCell,
    StochasticCell,
    anisotropy_counterexample,
    cell_estimator,
    estimate_whom,
    isotropy_probe,
    random_rotations,
    solve_cell_problem,
)
from polynet.meshing import (
    StochasticLatticeSpec,
    build_stochastic_mesh,
    check_admissibility,
    delaunay_triangulate,
    periodic_mesh_2d,
    periodic_mesh_3d,
    stochastic_lattice,
)
from polynet.volumetric import VolumetricParams, w_vol

UNIT_CHAIN = ChainParams(k=1.0, beta=1.0, c=0.0, n=1.0)


def report(num: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {text}")
    return ok


def test_criterion_01_series_fidelity():
    c1, c3, c5, c7 = INV_LANGEVIN_COEFFS
    exact = c1 + c3 + c5 + c7  # the series at rho = 1, in exact rationals
    ok_rational = exact == Fraction(7224, 875)
    err = abs(inv_langevin_series(1.0) - 7224 / 875)
    ok = ok_rational and err <= 1e-12
    assert report(1, ok, f"series(1) = 7224/875 exactly; float err {err:.2e}")


def test_criterion_02_chain_energy_calculus():
    worst_fd = 0.0
    for n, r in itertools.product((1.0, 8.0, 25.0), (0.1, 0.5, 1.0, 2.0, 5.0)):
        chain = PairPotential.langevin_chain(ChainParams(k=1.0, beta=1.0, c=0.0, n=n))
        eps = 1e-6 * (1.0 + r)
        fd = (chain.energy(r + eps) - chain.energy(r - eps)) / (2 * eps)
        worst_fd = max(worst_fd, abs(chain.derivative(r) - fd) / abs(fd))
    worst_id = 0.0
    for k, beta, n in ((1.0, 1.0, 1.0), (2.0, 0.5, 8.0)):
        rho = 1e-3
        chain = PairPotential.langevin_chain(ChainParams(k=k, beta=beta, c=0.0, n=n))
        scale = (k / beta) * math.sqrt(n)
        diff = abs(
            chain.derivative(rho * math.sqrt(n))
            - scale * inv_langevin_series(rho)
        )
        worst_id = max(worst_id, diff / scale)
    ok = worst_fd <= 1e-6 and worst_id <= 1e-8
    assert report(
        2, ok, f"derivative FD rel err {worst_fd:.2e}; near-origin identity {worst_id:.2e}"
    )


def test_criterion_03_growth_conditions():
    # chain constants frozen from the pre-build sweep (admissible window:
    # c_lo <= 1.19, c_hi >= 1.60 on [0, 10])
    chain = PairPotential.langevin_chain(UNIT_CHAIN)
    rep = check_growth_condition(chain, GrowthBounds(8.0, 1.0, 2.0), r_max=10.0,
                                 samples=4096)
    params = VolumetricParams(K=1.0, eta=0.1)
    c_eta = 0.5  # frozen from the pre-build sweep (binding value 0.329)
    rng = np.random.default_rng(123)
    vol_ok = True
    worst = 0.0
    for _ in range(2000):
        a = rng.standard_normal((3, 3))
        a /= np.linalg.norm(a)
        f_mat = 10.0 ** rng.uniform(-3, 1) * a
        ratio = w_vol(f_mat, params) / (np.linalg.norm(f_mat) ** 8 + 1.0)
        worst = max(worst, ratio)
    for t in np.linspace(1e-3, 10.0 / math.sqrt(3.0), 500):
        ratio = w_vol(t * np.eye(3), params) / (np.linalg.norm(t * np.eye(3)) ** 8 + 1.0)
        worst = max(worst, ratio)
    vol_ok = worst <= c_eta
    ok = rep.holds and vol_ok
    assert report(
        3, ok,
        f"chain p=8 bound holds (margin {rep.worst_violation:.3f}); "
        f"volumetric ratio max {worst:.3f} <= C_eta {c_eta}",
    )


def test_criterion_04_frame_invariance_of_energy():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = [(2, periodic_mesh_2d(3)), (3, periodic_mesh_3d(2))]
    for dim, mesh in cases:
        model = EnergyModel(
            pair=PairPotential.langevin_chain(),
            vol=VolumetricParams(K=1.0, eta=0.2),
        )
        for _ in range(10):
            state = mesh.vertices + 0.05 * rng.standard_normal(mesh.vertices.shape)
            e0 = total_energy(mesh, state, model)
            rot = random_rotation(dim, rng)
            shift = rng.standard_normal(dim)
            e1 = total_energy(mesh, state @ rot.T + shift, model)
            worst = max(worst, abs(e1 - e0) / abs(e0))
    ok = worst <= 1e-10
    assert report(4, ok, f"20 random rigid motions, worst rel deviation {worst:.2e}")


def test_criterion_05_assembly_gradient_fd():
    mesh = periodic_mesh_3d(2)
    rng = np.random.default_rng(7)
    state = mesh.vertices + 0.02 * rng.standard_normal(mesh.vertices.shape)
    models = [
        EnergyModel(pair=PairPotential.quadratic_spring(1.3)),
        EnergyModel(pair=PairPotential.quadratic_spring(1.3),
                    vol=VolumetricParams(K=2.0, eta=0.2)),
        EnergyModel(pair=PairPotential.langevin_chain()),
        EnergyModel(pair=PairPotential.langevin_chain(),
                    vol=VolumetricParams(K=2.0, eta=0.2)),
    ]
    worst = 0.0
    for model in models:
        g = energy_gradient(mesh, state, model)
        fd = fd_gradient(lambda s: total_energy(mesh, s, model), state)
        worst = max(worst, rel_err(fd, g))
    ok = worst <= 1e-5
    assert report(5, ok, f"four model combos on the m=2 cube, worst FD err {worst:.2e}")


def test_criterion_06_single_cell_oracle_agreement():
    spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    xis = [
        np.eye(2),
        np.eye(2) + 0.1 * np.outer(e1, e1),
        np.eye(2) + 0.1 * (np.outer(e1, e2) + np.outer(e2, e1)),
    ]
    worst = 0.0
    for xi in xis:
        oracle = single_cell_oracle_2d(xi)
        val = solve_cell_problem(
            CellProblem(xi=xi, source=PeriodicCell(m=16), model=spring)
        ).value
        worst = max(worst, abs(val - oracle) / abs(oracle))
    ok_agree = worst <= 1e-12
    assert report(6, ok_agree, f"m=16 vs single-cell oracle, worst rel err {worst:.2e} "
                                "(bound 1e-12)")

    # For quadratic springs the affine state is the exact minimizer of every
    # periodic cell problem (lattice point symmetry + convexity), so the
    # Cauchy diagnostic promises successive estimates that agree: every gap
    # is zero and every scale gives the one-cell value, to roundoff.  The
    # sweep reads them from periodic_density; the oracle is the hand-written
    # sum of tests/helpers.py, so the check does not compare it with itself.
    oracle = single_cell_oracle_2d(xis[2])
    est = estimate_whom(xis[2], [2, 4, 8, 16], spring, PeriodicCell(m=0))
    gaps = est.cauchy_gaps
    scale_errs = [abs(s.value - oracle) / abs(oracle) for s in est.per_h]
    extrap_errs = [abs(v - oracle) / abs(oracle) for v in (est.extrapolated, est.richardson)]
    ok_cauchy = (
        len(gaps) == 3
        and all(g <= 1e-12 * abs(oracle) for g in gaps)
        and all(e <= 1e-12 for e in scale_errs + extrap_errs)
    )
    assert report(
        6, ok_cauchy,
        f"cauchy gaps {[f'{g:.2e}' for g in gaps]}, per-scale rel err "
        f"{[f'{e:.2e}' for e in scale_errs]}, extrapolated/richardson rel err "
        f"{[f'{e:.2e}' for e in extrap_errs]} (bound 1e-12)",
    )


def test_criterion_07_anisotropy_counterexample():
    res = anisotropy_counterexample(stiffness=1.0, f=1.0)
    margin_ok = res.stiffness_diag > res.stiffness_antidiag * (1.0 + 1e-4)
    ratio_ok = abs(res.ratio - 2.0) <= 1e-6  # frozen pre-build oracle value
    ok = margin_ok and ratio_ok
    assert report(
        7, ok,
        f"stiffness {res.stiffness_diag:.6f} (e2-e1) vs "
        f"{res.stiffness_antidiag:.6f} (e1+e2), ratio {res.ratio:.8f}",
    )


def test_criterion_08_lattice_admissibility_and_delaunay():
    box = (np.zeros(3), np.ones(3))
    s = 27.0 ** (-1.0 / 3.0)
    jitter = (s - 0.2) / 2.0
    r_bound = math.sqrt(3.0) / 2.0 * s + jitter
    admissible = 0
    for seed in range(100):
        spec = StochasticLatticeSpec(
            kind="jittered-grid", intensity=27.0, r_min=0.2,
            R_cov=r_bound, seed=seed,
        )
        pts = stochastic_lattice(spec, box)
        rep = check_admissibility(pts, box, r_claim=0.2, R_claim=r_bound)
        admissible += int(rep.separation_ok and rep.covering_ok)
    delaunay_ok = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cloud = rng.random((50, 3))
        mesh = delaunay_triangulate(cloud)
        p = mesh.vertices[mesh.elements]
        a = 2.0 * (p[:, 1:, :] - p[:, :1, :])
        b = (p[:, 1:, :] ** 2).sum(axis=2) - (p[:, :1, :] ** 2).sum(axis=2)
        centers = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        radii = np.linalg.norm(centers - p[:, 0, :], axis=1)
        violated = any(
            np.any(np.linalg.norm(cloud - c, axis=1) < r - 1e-9)
            for c, r in zip(centers, radii)
        )
        delaunay_ok += int(not violated)
    ok = admissible == 100 and delaunay_ok == 20
    assert report(
        8, ok,
        f"jittered admissibility {admissible}/100 seeds; "
        f"empty circumsphere {delaunay_ok}/20 clouds",
    )


def test_criterion_09_stochastic_statistics():
    spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
    xi = np.array([[1.2, 0.0], [0.0, 1.0]])
    lattice = StochasticLatticeSpec(
        kind="jittered-grid", intensity=1.0, r_min=0.5, R_cov=1.0, seed=0
    )
    src = StochasticCell(lattice=lattice, h=0.15, dim=2)
    batches = 8
    ns = (2, 4, 8)
    variance_estimates = {n: [] for n in ns}
    for b in range(batches):
        for n in ns:
            est = estimate_whom(xi, [0.25, 0.15], spring, src,
                                n_realizations=n, seed=1000 + b)
            variance_estimates[n].append(n * est.per_h[-1].stderr**2)
    consistent = True
    detail = []
    for n1, n2 in itertools.combinations(ns, 2):
        a1 = np.array(variance_estimates[n1])
        a2 = np.array(variance_estimates[n2])
        diff = abs(a1.mean() - a2.mean())
        se = math.sqrt(a1.var(ddof=1) / batches + a2.var(ddof=1) / batches)
        consistent &= diff <= 3.0 * se
        detail.append(f"{n1}v{n2}:{diff:.1e}<=3x{se:.1e}")
    est_a = estimate_whom(xi, [0.25, 0.15], spring, src, n_realizations=4, seed=77)
    est_b = estimate_whom(xi, [0.25, 0.15], spring, src, n_realizations=4, seed=77)
    deterministic = all(
        x.value == y.value for x, y in zip(est_a.per_h, est_b.per_h)
    )
    ok = consistent and deterministic
    assert report(
        9, ok,
        f"1/sqrt(n) scaling within 3 sigma ({'; '.join(detail)}); "
        f"same-seed determinism {deterministic}",
    )


def test_criterion_10_isotropy_contrast():
    spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0), f=1.0)
    xi = np.array([[1.2, 0.0], [0.0, 1.0]])
    periodic = cell_estimator(PeriodicCell(m=10, dim=2), spring)
    dev_periodic = isotropy_probe(periodic, xi, random_rotations(2, 4, 5))
    lattice = StochasticLatticeSpec(
        kind="matern-hardcore", intensity=1.0, r_min=0.3, R_cov=1.0, seed=0
    )
    stochastic = cell_estimator(
        StochasticCell(lattice, h=0.1, dim=2), spring, n_realizations=8, seed=123
    )
    dev_stochastic = isotropy_probe(stochastic, xi, random_rotations(2, 4, 5))
    # matched element counts: 2 m^2 = 200 vs ~2 x (intensity / h^2) in 2D
    sample_mesh = build_stochastic_mesh(
        StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0,
                              r_min=0.3, R_cov=1.0, seed=99),
        h=0.1, dim=2,
    )
    counts_matched = 0.5 <= sample_mesh.num_elements / 200.0 <= 2.0
    ok = dev_periodic >= 3.0 * dev_stochastic and counts_matched
    assert report(
        10, ok,
        f"periodic deviation {dev_periodic:.4f} vs stochastic "
        f"{dev_stochastic:.4f} (factor {dev_periodic / dev_stochastic:.1f}, "
        f"elements {sample_mesh.num_elements} vs 200)",
    )
