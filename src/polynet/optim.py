"""Smooth unconstrained minimization of the network energy over free dofs.

A limited-memory quasi-Newton loop with a strong Wolfe line search drives
every cell problem and boundary-value problem.  Its initial inverse Hessian
is the inverse of the edge-stiffness Laplacian at the starting state,
factorized once per minimize call on first use.  The line search is written
here (Nocedal & Wright, Alg. 3.5 and 3.6) and evaluates energy and gradient
together, once per trial step; scipy.optimize is never imported, and
scipy.sparse only at the first factorization.  Energy is monotone
nonincreasing across accepted iterations; the run is deterministic for
fixed inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import (BoundaryCondition, EnergyModel, affine_positions, apply_bc,
                       edge_stiffness_laplacian, energy_and_gradient, split_pinned)
from .meshing import Mesh


# L-BFGS history length and the strong Wolfe constants of the line search
MEMORY = 10
ARMIJO_C1 = 1e-4
WOLFE_C2 = 0.9


class OptimizationError(RuntimeError):
    """The line search cannot decrease the energy by a machine-precision margin."""


@dataclass(frozen=True)
class MinimizeSettings:
    """Tolerance and iteration limit of the quasi-Newton loop.

    grad_tol None means the default rule 1e-8 * (1 + |E(init)|).
    """

    grad_tol: float | None = None
    max_iters: int = 2000

    def __post_init__(self):
        if self.grad_tol is not None and not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


DEFAULT_SETTINGS = MinimizeSettings()


@dataclass
class MinimizeResult:
    state: np.ndarray  # full deformed positions, fixed dofs included
    energy: float
    grad_norm: float
    iterations: int
    converged: bool


def _two_loop(grad, history, precondition):
    """-H grad, H the L-BFGS inverse Hessian built on the initial matrix
    `precondition`, or on the scalar (s.y)/(y.y) when there is none."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if precondition is not None:
        q = precondition(q)
    elif history:
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


class _Trial(NamedTuple):
    """A trial step: its length, point, energy, gradient and the slope of the
    energy along the search direction."""

    alpha: float
    x: np.ndarray
    f: float
    g: np.ndarray
    slope: float


def _trial(fg, x, direction, alpha: float) -> _Trial:
    x_new = x + alpha * direction
    f, g = fg(x_new)
    return _Trial(alpha, x_new, float(f), g, float(g @ direction))


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope
    fpa at a, or None."""
    db, dc = b - a, c - a
    rb, rc = fb - fa - fpa * db, fc - fa - fpa * dc
    try:
        denom = (db * dc) ** 2 * (db - dc)
        A = (dc ** 2 * rb - db ** 2 * rc) / denom
        B = (db ** 3 * rc - dc ** 3 * rb) / denom
        xmin = a + (-B + math.sqrt(B * B - 3.0 * A * fpa)) / (3.0 * A)
    except (ArithmeticError, ValueError):  # a zero division or a negative radical
        return None
    return xmin if math.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa at
    a, or None."""
    db = b - a
    try:
        xmin = a - fpa / (2.0 * ((fb - fa - fpa * db) / (db * db)))
    except ArithmeticError:
        return None
    return xmin if math.isfinite(xmin) else None


def _sufficient_decrease(trial: _Trial, start: _Trial) -> bool:
    # written with <= so that a NaN energy fails it
    return trial.f <= start.f + ARMIJO_C1 * trial.alpha * start.slope


def _zoom(fg, x, direction, start: _Trial, lo: _Trial, hi: _Trial):
    """Alg. 3.6: shrink [lo, hi], which holds a strong Wolfe step, by cubic
    interpolation, else quadratic, else bisection; at most 11 trials."""
    rec = start  # the point dropped last, the cubic's third
    for i in range(11):
        dalpha = hi.alpha - lo.alpha
        a, b = min(lo.alpha, hi.alpha), max(lo.alpha, hi.alpha)
        # the margins keep the sign of dalpha, as in scipy's _zoom
        alpha = None
        if i > 0:
            margin = 0.2 * dalpha
            alpha = _cubicmin(lo.alpha, lo.f, lo.slope, hi.alpha, hi.f, rec.alpha, rec.f)
            if alpha is not None and (alpha > b - margin or alpha < a + margin):
                alpha = None
        if alpha is None:
            margin = 0.1 * dalpha
            alpha = _quadmin(lo.alpha, lo.f, lo.slope, hi.alpha, hi.f)
            if alpha is None or alpha > b - margin or alpha < a + margin:
                alpha = lo.alpha + 0.5 * dalpha
        trial = _trial(fg, x, direction, alpha)
        if not _sufficient_decrease(trial, start) or trial.f >= lo.f:
            rec, hi = hi, trial
            continue
        if abs(trial.slope) <= -WOLFE_C2 * start.slope:
            return trial
        if trial.slope * dalpha >= 0.0:
            rec, hi = hi, lo
        else:
            rec = lo
        lo = trial
    return None


def _wolfe_search(fg, x, f, g, direction):
    """A step along the descent direction that meets the strong Wolfe
    conditions with ARMIJO_C1 and WOLFE_C2, as a _Trial, or None.

    Alg. 3.5 of Nocedal & Wright (Numerical Optimization, 2nd ed.), with the
    safeguards and caps of scipy's scalar_search_wolfe2: the first trial is
    alpha = 1, the step doubles at most 9 times, and the zoom takes at most
    11 trials.
    """
    start = _Trial(0.0, x, f, g, float(g @ direction))
    prev, alpha = start, 1.0
    for i in range(10):
        trial = _trial(fg, x, direction, alpha)
        if not _sufficient_decrease(trial, start) or (i > 0 and trial.f >= prev.f):
            return _zoom(fg, x, direction, start, prev, trial)
        if abs(trial.slope) <= -WOLFE_C2 * start.slope:
            return trial
        if trial.slope >= 0.0:
            return _zoom(fg, x, direction, start, trial, prev)
        prev, alpha = trial, 2.0 * alpha
    return None


def _gradient_contraction_step(fg, x, f, g, direction, noise):
    """Terminal-phase acceptance: once energy differences drop below machine
    precision, accept a step that contracts the gradient norm without raising
    the energy beyond noise level."""
    gnorm = np.linalg.norm(g)
    for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
        trial = _trial(fg, x, direction, alpha)
        if not np.isfinite(trial.f) or trial.f > f + noise:
            continue
        if np.linalg.norm(trial.g) <= 0.9 * gnorm:
            return trial
    return None


def lbfgs(fg, x0, settings: MinimizeSettings = DEFAULT_SETTINGS, precondition=None):
    """Generic L-BFGS on a flat vector; returns (x, f, grad_norm, iters, converged).

    fg maps a flat vector to (energy, gradient), the gradient a flat array;
    it is called once per trial point.  precondition, when given, maps a
    flat vector v to H0 v, H0 the initial inverse Hessian; it is called once
    per iteration, never at a start that meets the tolerance.  When the
    Wolfe line search along the quasi-Newton direction fails, a step that
    contracts the gradient without raising the energy beyond noise is
    tried; failing that, it raises OptimizationError.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fg(x)
    f = float(f)
    if not np.isfinite(f):
        raise ValueError("energy is not finite at the initial state")
    tol = settings.grad_tol
    if tol is None:
        tol = 1e-8 * (1.0 + abs(f))
    history: deque = deque(maxlen=MEMORY)

    iterations = 0
    for iterations in range(settings.max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x, f, gnorm, iterations, True
        if iterations == settings.max_iters:
            break
        direction = _two_loop(g, history, precondition)
        if direction @ g >= 0.0:
            direction = -g
        noise = 1e-12 * (1.0 + abs(f))
        step = _wolfe_search(fg, x, f, g, direction)
        if step is None:
            step = _gradient_contraction_step(fg, x, f, g, direction, noise)
        if step is None:
            raise OptimizationError(
                "line search failed: energy cannot decrease by a machine-"
                "precision margin and the gradient does not contract")
        if step.f > f + noise:
            raise OptimizationError("line search produced an energy increase")
        s, y = step.x - x, step.g - g
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            history.append((s, y, 1.0 / sy))
        x, f, g = step.x, step.f, step.g

    return x, f, float(np.linalg.norm(g)), iterations, False


def minimize(
    mesh: Mesh,
    model: EnergyModel,
    bc: BoundaryCondition,
    init: np.ndarray | None = None,
    settings: MinimizeSettings = DEFAULT_SETTINGS,
) -> MinimizeResult:
    """Minimize the network energy over the dofs left free by the BC.

    init defaults to the affine state xi @ x; fixed dofs are overwritten with
    their boundary targets in any case.
    """
    mask, targets = apply_bc(mesh, bc)
    state = affine_positions(mesh, bc.xi) if init is None else np.array(init, dtype=float)
    if state.shape != mesh.vertices.shape:
        raise ValueError("initial state does not match the mesh")
    state[mask] = targets[mask]
    free = ~mask
    # f keeps the pinned elements' constant energy, so tolerance and result do too
    active, pinned_energy = split_pinned(mesh, free, state, model)

    def unpack(x):
        positions = state.copy()
        positions[free] = x.reshape(-1, mesh.dim)
        return positions

    def fg(x):
        energy, grad = energy_and_gradient(active, unpack(x), model)
        return energy + pinned_energy, grad[free].ravel()

    lu = None

    def precondition(x):
        # factorized on first use: a start that is already critical never pays
        nonlocal lu
        if lu is None:
            from scipy.sparse.linalg import splu

            stiffness = edge_stiffness_laplacian(active, state, model, free)
            # K_ff is symmetric positive definite: symmetric ordering, no pivoting
            lu = splu(stiffness, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return lu.solve(x.reshape(-1, mesh.dim)).ravel()

    x, f, gnorm, iters, converged = lbfgs(fg, state[free].ravel(), settings, precondition)
    return MinimizeResult(
        state=unpack(x), energy=f, grad_norm=gnorm, iterations=iters, converged=converged
    )
