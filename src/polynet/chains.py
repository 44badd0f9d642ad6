"""Pair potentials acting along mesh edges.

Two potentials are provided: the free energy of a freely-jointed polymer
chain, evaluated through the order-7 odd-polynomial truncation of the
inverse Langevin function, and a plain quadratic spring.  Both are functions
of the stretch ratio r = (deformed edge length) / (reference edge length)
with analytic first and second derivatives.  `PairPotential` evaluates every
order on one path, which forms the chain's series once for all the orders a
call asks for; `_seam` switches each Langevin helper from its Taylor series
near the origin to the closed form.  Everything here is a pure function of
its inputs; scalars in give scalars out, arrays give arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Truncated inverse-Langevin coefficients for rho, rho^3, rho^5, rho^7.
# Kept as exact rationals; the float copies are derived from them once.
INV_LANGEVIN_COEFFS = (
    Fraction(3),
    Fraction(9, 5),
    Fraction(297, 175),
    Fraction(1539, 875),
)
_C1, _C3, _C5, _C7 = (float(c) for c in INV_LANGEVIN_COEFFS)

_LN2 = math.log(2.0)

LANGEVIN_CHAIN = "langevin-chain"
QUADRATIC_SPRING = "quadratic-spring"


def inv_langevin_series(rho):
    """Order-7 odd polynomial approximating the inverse Langevin function.

    Returns 3*rho + (9/5)*rho**3 + (297/175)*rho**5 + (1539/875)*rho**7.
    Total on finite reals; the physically meaningful range is |rho| < 1.
    """
    out = _series(np.asarray(rho, dtype=float))
    return out if out.ndim else float(out)


def _series(rho):
    """The truncated inverse-Langevin series of a float array, in Horner form."""
    r2 = rho * rho
    return rho * (_C1 + r2 * (_C3 + r2 * (_C5 + r2 * _C7)))


def _seam(v, small, series, closed):
    """series(s, s*s) of the entries s of v where small holds, closed(b) of
    the rest b; with no small entry, closed(v) of the whole v, unmasked."""
    if not small.any():
        return closed(v)
    out, s = np.empty_like(v), v[small]
    out[small] = series(s, s * s)
    out[~small] = closed(v[~small])
    return out


def _log_x_over_sinh(x):
    """log(x / sinh x), stable for every finite x.

    Even in x.  Below 1e-4 the Taylor expansion -x^2/6 + x^4/180 is used
    (both branches agree to ~1e-16 at the seam); above it the exact rewrite
    log a - a - log1p(-exp(-2a)) + log 2 avoids sinh overflow.
    """
    a = np.abs(np.asarray(x, dtype=float))
    return _seam(a, a < 1e-4, lambda _, s2: s2 * (s2 / 180.0 - 1.0 / 6.0),
                 lambda b: np.log(b) - b - np.log1p(-np.exp(-2.0 * b)) + _LN2)


def _langevin(x):
    """Langevin function coth x - 1/x with a series branch near the origin."""
    x = np.asarray(x, dtype=float)
    return _seam(x, np.abs(x) < 0.05, lambda s, s2: s * (
        1.0 / 3.0 + s2 * (-1.0 / 45.0 + s2 * (2.0 / 945.0 - s2 / 4725.0))),
        lambda b: 1.0 / np.tanh(b) - 1.0 / b)


def _langevin_prime(x):
    """L'(x) = 1/x^2 - 1/sinh^2 x, even, with a series branch near the
    origin; above it 1/sinh^2 is 4e^{-2|x|} / (1 - e^{-2|x|})^2, which
    cannot overflow."""
    a = np.abs(np.asarray(x, dtype=float))
    return _seam(a, a < 0.05, lambda _, s2: (
        1.0 / 3.0 + s2 * (-1.0 / 15.0 + s2 * (2.0 / 189.0 - s2 / 675.0))),
        lambda b: 1.0 / (b * b) - 4.0 * np.exp(-2.0 * b) / np.expm1(-2.0 * b) ** 2)


@dataclass(frozen=True)
class ChainParams:
    """Physical constants of the polymer-chain free energy.

    k and beta play the role of a Boltzmann-like constant and an inverse
    temperature, c is an additive constant and n the number of segments per
    chain.  The energy depends on the stretch ratio only, so the segment
    length does not enter it.  All four are finite.
    """

    k: float = 1.0
    beta: float = 1.0
    c: float = 0.0
    n: float = 8.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.k, self.beta, self.n)):
            raise ValueError("ChainParams requires k > 0, beta > 0, n > 0")
        if not math.isfinite(self.c):
            raise ValueError("ChainParams requires a finite c")


DEFAULT_CHAIN = ChainParams()


@dataclass(frozen=True)
class PairPotential:
    """Tagged pair potential: a Langevin chain or a quadratic spring.

    Defined for every stretch ratio r >= 0.
    """

    kind: str
    chain: ChainParams | None = None
    stiffness: float | None = None

    def __post_init__(self):
        if self.kind == LANGEVIN_CHAIN:
            if self.chain is None:
                object.__setattr__(self, "chain", DEFAULT_CHAIN)
        elif self.kind == QUADRATIC_SPRING:
            if self.stiffness is None:
                object.__setattr__(self, "stiffness", 1.0)
            if not 0.0 < self.stiffness < math.inf:
                raise ValueError("spring stiffness must be positive")
        else:
            raise ValueError(f"unknown pair potential kind {self.kind!r}")

    @classmethod
    def langevin_chain(cls, params: ChainParams | None = None) -> "PairPotential":
        return cls(kind=LANGEVIN_CHAIN, chain=params)

    @classmethod
    def quadratic_spring(cls, stiffness: float = 1.0) -> "PairPotential":
        return cls(kind=QUADRATIC_SPRING, stiffness=stiffness)

    def energy(self, r):
        """Pair energy at stretch ratio r >= 0.  For the chain, with rho =
        r/sqrt(n) and x the truncated inverse Langevin of rho, it is
        (k/beta)*n*(rho*x + log(x/sinh x)) - c/beta, exactly -c/beta at
        r = 0; for the spring, stiffness * r**2."""
        return self._evaluate(r, 0)[0]

    def derivative(self, r):
        """Analytic d/dr of energy as implemented (series substituted).  For
        the chain it is (k/beta)*sqrt(n)*(x + (rho - L(x))*x'(rho)) with L the
        Langevin function, the bracket the exact derivative of rho*x +
        log(x/sinh x), and vanishes at r = 0; for the spring, 2 * stiffness * r."""
        return self._evaluate(r, 1)[0]

    def second_derivative(self, r):
        """Analytic d^2/dr^2 of energy: 2 * stiffness for the spring, and for
        the chain (k/beta) (2x' - L'(x) x'^2 + (rho - L(x)) x''), x the series
        at rho = r/sqrt(n) and L the Langevin function."""
        return self._evaluate(r, 2)[0]

    def energy_and_derivative(self, r):
        """(energy(r), derivative(r)), each the separate call's result bit for bit."""
        return self._evaluate(r, 0, 1)

    def _evaluate(self, r, *orders):
        """The derivatives of energy of the given orders (0 the energy
        itself, then 1 and 2, ascending) at stretch ratios r, as a tuple,
        0-d results as floats.  The chain forms rho = r/sqrt(n) and the
        series x once, and x' and rho - L(x) once for both derivatives."""
        r = np.asarray(r, dtype=float)
        if self.kind == QUADRATIC_SPRING:
            s = self.stiffness
            out = [s * r * r if o == 0 else 2.0 * s * r if o == 1 else np.full(r.shape, 2.0 * s)
                   for o in orders]
        else:
            p = self.chain
            scale, rho = p.k / p.beta, r / math.sqrt(p.n)
            x, out = _series(rho), []
            if 0 in orders:
                out.append(scale * p.n * (rho * x + _log_x_over_sinh(x)) - p.c / p.beta)
            if orders[-1] > 0:
                r2 = rho * rho
                dx = _C1 + r2 * (3.0 * _C3 + r2 * (5.0 * _C5 + r2 * (7.0 * _C7)))
                gap = rho - _langevin(x)
            if 1 in orders:
                out.append(scale * math.sqrt(p.n) * (x + gap * dx))
            if 2 in orders:
                ddx = rho * (6.0 * _C3 + r2 * (20.0 * _C5 + r2 * (42.0 * _C7)))
                out.append(scale * (2.0 * dx - _langevin_prime(x) * dx * dx + gap * ddx))
        return tuple(v if v.ndim else float(v) for v in out)


@dataclass(frozen=True)
class GrowthBounds:
    """Constants of the two-sided growth condition of order p.

    The condition reads c_lo*|r|**p - 1 <= W(r) <= c_hi*(|r|**p + 1).
    """

    p: float
    c_lo: float
    c_hi: float

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError("growth exponent p must exceed 1 and be finite")
        if not 0.0 < self.c_lo <= self.c_hi < math.inf:
            raise ValueError("growth constants must satisfy 0 < c_lo <= c_hi < inf")


@dataclass(frozen=True)
class GrowthReport:
    holds: bool
    worst_violation: float  # worst signed margin; >= 0 iff both bounds hold
    witness: float  # sample r at which the worst margin occurs


def check_growth_condition(
    potential: PairPotential,
    bounds: GrowthBounds,
    r_max: float,
    samples: int = 512,
) -> GrowthReport:
    """Sample the growth condition on [0, r_max].

    Evaluates both bounds on r = 0 plus a log-uniform grid up to r_max and
    reports the worst signed margin (distance to the violated side) together
    with the sample where it occurs.
    """
    if not (isinstance(samples, numbers.Integral) and samples >= 2):
        raise ValueError(f"need at least 2 samples, as an integer, not {samples!r}")
    if not 0.0 < r_max < math.inf:
        raise ValueError("r_max must be positive and finite")
    rs = np.concatenate(([0.0], np.geomspace(r_max * 1e-9, r_max, samples - 1)))
    w = np.asarray(potential.energy(rs), dtype=float)
    rp = rs**bounds.p
    lower_margin = w - (bounds.c_lo * rp - 1.0)
    upper_margin = bounds.c_hi * (rp + 1.0) - w
    margins = np.concatenate((lower_margin, upper_margin))
    i = int(np.argmin(margins))
    worst = float(margins[i])
    witness = float(rs[i % rs.size])
    return GrowthReport(holds=worst >= 0.0, worst_violation=worst, witness=witness)
