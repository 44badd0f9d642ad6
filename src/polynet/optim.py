"""Smooth unconstrained minimization of the network energy over free dofs.

A limited-memory quasi-Newton loop with a strong Wolfe line search drives
every cell problem and boundary-value problem.  Its initial inverse Hessian
is the inverse of the edge-stiffness Laplacian at the starting state,
factorized once per minimize call on first use.  Energy is monotone
nonincreasing across accepted iterations; the run is deterministic for
fixed inputs.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import line_search
from scipy.sparse.linalg import splu

from .assembly import (BoundaryCondition, EnergyModel, affine_positions, apply_bc,
                       edge_stiffness_laplacian, energy_gradient, split_pinned,
                       total_energy)
from .meshing import Mesh


class OptimizationError(RuntimeError):
    """The line search cannot decrease the energy by a machine-precision margin."""


@dataclass(frozen=True)
class MinimizeSettings:
    """Tolerances and limits of the quasi-Newton loop.

    grad_tol None means the default rule 1e-8 * (1 + |E(init)|).
    """

    grad_tol: float | None = None
    max_iters: int = 2000
    memory: int = 10
    armijo_c1: float = 1e-4
    wolfe_c2: float = 0.9

    def __post_init__(self):
        if self.grad_tol is not None and not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if not (0.0 < self.armijo_c1 < self.wolfe_c2 < 1.0):
            raise ValueError("need 0 < armijo_c1 < wolfe_c2 < 1")


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


def _gradient_contraction_step(fun, grad, x, f, g, direction, noise):
    """Terminal-phase acceptance: once energy differences drop below machine
    precision, accept a step that contracts the gradient norm without raising
    the energy beyond noise level."""
    gnorm = np.linalg.norm(g)
    for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
        x_new = x + alpha * direction
        f_new = float(fun(x_new))
        if not np.isfinite(f_new) or f_new > f + noise:
            continue
        g_new = np.asarray(grad(x_new), dtype=float)
        if np.linalg.norm(g_new) <= 0.9 * gnorm:
            return x_new, f_new, g_new
    return None


def lbfgs(fun, grad, x0, settings: MinimizeSettings = DEFAULT_SETTINGS,
          precondition=None):
    """Generic L-BFGS on a flat vector; returns (x, f, grad_norm, iters, converged).

    precondition, when given, maps a flat vector v to H0 v, H0 the initial
    inverse Hessian; it is called once per iteration, never at a start that
    meets the tolerance.  When the Wolfe line search along the quasi-Newton
    direction fails, a step that contracts the gradient without raising the
    energy beyond noise is tried; failing that, it raises OptimizationError.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = float(fun(x))
    if not np.isfinite(f):
        raise ValueError("energy is not finite at the initial state")
    g = np.asarray(grad(x), dtype=float)
    tol = settings.grad_tol
    if tol is None:
        tol = 1e-8 * (1.0 + abs(f))
    history: deque = deque(maxlen=settings.memory)

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
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="The line search algorithm", category=RuntimeWarning
            )
            alpha, _, _, f_new, _, _ = line_search(
                fun, grad, x, direction, gfk=g, old_fval=f,
                c1=settings.armijo_c1, c2=settings.wolfe_c2,
            )
        if alpha is not None:  # scipy then also returns the energy at the step
            x_new = x + alpha * direction
            g_new = np.asarray(grad(x_new), dtype=float)
        else:
            step = _gradient_contraction_step(fun, grad, x, f, g, direction, noise)
            if step is None:
                raise OptimizationError(
                    "line search failed: energy cannot decrease by a machine-"
                    "precision margin and the gradient does not contract")
            x_new, f_new, g_new = step
        if f_new > f + noise:
            raise OptimizationError("line search produced an energy increase")
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            history.append((s, y, 1.0 / sy))
        x, f, g = x_new, float(f_new), g_new

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

    def fun(x):
        return total_energy(active, unpack(x), model) + pinned_energy

    def grad(x):
        return energy_gradient(active, unpack(x), model)[free].ravel()

    lu = None

    def precondition(x):
        # factorized on first use: a start that is already critical never pays
        nonlocal lu
        if lu is None:
            stiffness = edge_stiffness_laplacian(active, state, model)
            # K_ff is symmetric positive definite: symmetric ordering, no pivoting
            lu = splu(stiffness[free][:, free], permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return lu.solve(x.reshape(-1, mesh.dim)).ravel()

    x, f, gnorm, iters, converged = lbfgs(fun, grad, state[free].ravel(), settings, precondition)
    return MinimizeResult(
        state=unpack(x), energy=f, grad_norm=gnorm, iterations=iters, converged=converged
    )
