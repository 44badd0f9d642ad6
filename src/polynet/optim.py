"""Smooth unconstrained minimization of the network energy over free dofs.

A limited-memory quasi-Newton loop with a backtracking line search drives
every cell problem and boundary-value problem.  Its initial inverse Hessian
is the inverse of the edge-stiffness Laplacian at the starting state,
factorized once per minimize call on first use, so the unit step is
almost always taken.  Under the default tolerance the loop also stops once
the predicted decrease -g.d/2 along the quasi-Newton direction d (the
L-BFGS form of the Newton decrement) is at most GAP_EPS * (1 + |E(init)|):
the energy, a cell's output, is then within about that of its minimum.
The line search halves the step until the energy decreases sufficiently
or, in the terminal phase where energy differences fall below machine
precision, the gradient contracts; it evaluates energy and gradient
together, once per trial step.  scipy.optimize is never imported, and
scipy.sparse only at the first factorization.  Energy is monotone across
accepted iterations up to 1e-12 * (1 + |E|); the run is deterministic for
fixed inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import (BoundaryCondition, EnergyModel, apply_bc, edge_stiffness_laplacian,
                       energy_and_gradient, split_pinned)
from .meshing import Mesh, check_count
from .volumetric import InvertedElementError


# L-BFGS history length, the sufficient-decrease constant of the line search
# and the relative predicted energy gap at which the default tolerance stops
MEMORY = 10
ARMIJO_C1 = 1e-4
GAP_EPS = 1e-14


class OptimizationError(RuntimeError):
    """No trial step of the line search decreases the energy sufficiently or
    contracts the gradient within energy noise."""


@dataclass(frozen=True)
class MinimizeSettings:
    """Tolerance and iteration limit of the quasi-Newton loop.

    grad_tol None means the default rule: |g| <= 1e-8 * (1 + |E(init)|), or a
    predicted decrease -g.d/2 of at most GAP_EPS * (1 + |E(init)|), so a
    converged grad_norm may exceed the former.  An explicit grad_tol tests the
    gradient alone: the gap bounds the energy's error, but the positions' only
    to about its square root.
    """

    grad_tol: float | None = None
    max_iters: int = 2000

    def __post_init__(self):
        if self.grad_tol is not None and not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        check_count(self.max_iters, "max_iters")


DEFAULT_SETTINGS = MinimizeSettings()


@dataclass
class MinimizeResult:
    """A solve's outcome, the one record from minimize to a CSV row (whose h
    is the cell source's); minimize alone fills state, the positions."""

    value: float  # the energy; a cell's density, as the unit box has volume 1
    grad_norm: float
    iterations: int
    evaluations: int  # energy-and-gradient calls of the run
    status: str  # "ok" (converged), "max_iters" (stopped unconverged) or "failed"
    n_free: int  # vertices minimized over
    error: str = ""  # "Type: message" of a failed cell
    state: np.ndarray | None = None  # deformed positions, fixed dofs included


def _two_loop(grad, history, precondition):
    """-H grad, H the L-BFGS inverse Hessian built on the initial matrix
    `precondition`, or on the scalar (s.y)/(y.y) of the newest pair; with
    neither, the unit step -grad/|grad|, as L-BFGS-B starts (Byrd et al. 1995)."""
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if precondition is not None:
        q = precondition(q)
    elif history:
        q *= history[-1][3]
    else:
        q /= np.linalg.norm(q)
    for (s, y, rho, _), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


class _Trial(NamedTuple):
    """A trial point with its energy and gradient."""

    x: np.ndarray
    f: float
    g: np.ndarray


def _line_search(fg, x, f, g, direction, slope, gnorm):
    """The first of the steps alpha = 1, 1/2, ... along the descent
    direction that moves x and either decreases the energy sufficiently or,
    once energy differences drop below machine precision, contracts the
    gradient norm gnorm = |g| without raising the energy beyond noise; as a
    _Trial, or None after 10 trials fail.  slope is g.direction.

    Backtracking (Nocedal & Wright, Numerical Optimization, 2nd ed.,
    Alg. 3.1) with contraction factor 1/2; both energy tests are written
    with <= so that a NaN energy fails them.  A trial point where fg raises
    InvertedElementError (an element past the volumetric log barrier at
    eta = 0) is a step too long: it is halved and not counted.  Every
    element of x itself has J > 0, so short enough steps do not invert.
    """
    noise = 1e-12 * (1.0 + abs(f))
    contracted = 0.9 * gnorm
    alpha, trials = 1.0, 0
    while trials < 10:
        x_t = x + alpha * direction
        try:
            f_t, g_t = fg(x_t)
        except InvertedElementError:
            alpha *= 0.5
            continue
        trials += 1
        f_t = float(f_t)
        if (x_t != x).any() and (
                f_t <= f + ARMIJO_C1 * alpha * slope
                or (f_t <= f + noise and np.linalg.norm(g_t) <= contracted)):
            return _Trial(x_t, f_t, g_t)
        alpha *= 0.5
    return None


def lbfgs(fg, x0, settings: MinimizeSettings = DEFAULT_SETTINGS, precondition=None):
    """Generic L-BFGS on a flat vector; returns (x, f, grad_norm, iters, status).

    fg maps a flat vector to (energy, gradient), the gradient a flat array;
    it is called once per trial point.  precondition, when given, maps a
    flat vector v to H0 v, H0 the initial inverse Hessian; it is called once
    per iteration, never at a start that meets the gradient tolerance.  Each
    iteration runs one backtracking line search along the quasi-Newton
    direction (see _line_search) and raises OptimizationError when it finds
    no step.  status is "ok" once |g| <= tol, or, with settings.grad_tol
    None, once a quasi-Newton direction predicts a decrease of at most
    GAP_EPS * (1 + |E(x0)|), and "max_iters" when the run is cut short.  A
    direction that does not descend is replaced by -g, and from then on
    precondition is dropped, so H0 is the scalar of the newest pair, and only
    |g| <= tol ends the run.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fg(x)
    f = float(f)
    if not np.isfinite(f):
        raise ValueError("energy is not finite at the initial state")
    tol, gap_tol = settings.grad_tol, 0.0  # a positive decrease never meets 0
    if tol is None:
        tol, gap_tol = 1e-8 * (1.0 + abs(f)), GAP_EPS * (1.0 + abs(f))
    history: deque = deque(maxlen=MEMORY)

    for iterations in range(settings.max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol or iterations == settings.max_iters:
            return x, f, gnorm, iterations, "ok" if gnorm <= tol else "max_iters"
        direction = _two_loop(g, history, precondition)
        slope = float(direction @ g)
        decrease = -0.5 * slope  # predicted by the quadratic model
        if decrease <= 0.0:  # H is not positive definite, so no later gap bounds f
            direction, slope, gap_tol, precondition = -g, -float(g @ g), 0.0, None
        elif decrease <= gap_tol:
            return x, f, gnorm, iterations, "ok"
        step = _line_search(fg, x, f, g, direction, slope, gnorm)
        if step is None:
            raise OptimizationError(
                "line search failed: energy cannot decrease by a machine-"
                "precision margin and the gradient does not contract")
        s, y = step.x - x, step.g - g
        sy, yy = s @ y, y @ y
        if sy > 1e-12 * math.sqrt(s @ s) * math.sqrt(yy):
            history.append((s, y, 1.0 / sy, sy / yy))
        x, f, g = step.x, step.f, step.g


def minimize(
    mesh: Mesh,
    model: EnergyModel,
    bc: BoundaryCondition,
    init: np.ndarray | None = None,
    settings: MinimizeSettings = DEFAULT_SETTINGS,
) -> MinimizeResult:
    """Minimize the network energy over the dofs left free by the BC.

    init defaults to the affine state xi @ x; fixed dofs are overwritten
    with their boundary targets in any case.  Every point, the start
    included, is evaluated by assembly.energy_and_gradient on the active
    sub-mesh of split_pinned.
    """
    mask, positions = apply_bc(mesh, bc)
    free = ~mask
    rows = np.flatnonzero(free)
    if init is not None:
        if np.shape(init) != mesh.vertices.shape:
            raise ValueError("initial state does not match the mesh")
        positions[rows] = np.asarray(init, dtype=float)[rows]
    # f keeps the pinned elements' constant energy, so tolerance and result do too
    active, pinned_energy = split_pinned(mesh, free, bc.xi, model)
    evaluations = 0

    def fg(x):
        nonlocal evaluations
        evaluations += 1
        positions[rows] = x.reshape(-1, mesh.dim)
        energy, grad = energy_and_gradient(active, positions, model)
        return energy + pinned_energy, grad[rows].ravel()

    lu = None

    def precondition(x):
        # factorized on first use, before lbfgs tries any step, so positions
        # still hold the start; a start that is already critical never pays
        nonlocal lu
        if lu is None:
            from scipy.sparse.linalg import splu

            stiffness = edge_stiffness_laplacian(active, positions, model, free)
            # K_ff is symmetric positive definite: symmetric ordering, no pivoting
            lu = splu(stiffness, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return lu.solve(x.reshape(-1, mesh.dim)).ravel()

    x, f, gnorm, iters, status = lbfgs(fg, positions[rows].ravel(), settings, precondition)
    positions[rows] = x.reshape(-1, mesh.dim)
    return MinimizeResult(f, gnorm, iters, evaluations, status, rows.size, state=positions)
