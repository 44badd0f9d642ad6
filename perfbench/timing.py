"""Timed passes, and the machine-speed yardstick for the time metrics.

On a shared machine the speed of one core drifts by 10-40% over tens of
seconds while other tenants load it, and that drift, not the program,
dominates the spread of raw times between runs.  A fixed kernel that does
the same kinds of work as polynet (gather, norms and scatter-add on a
3D-sized edge list, the same on a small 2D-sized one, and a pure-Python
element loop like the periodic mesher's) is timed before the first unit of
work and after each one: after every cell of a cell pass, after every run of
the CLI.  Sampling between cells tracks the drift within a ~10 s pass, which
samples at pass boundaries alone do not.  Each unit's time is reported in
reference seconds:

    t_ref = t_measured * REFERENCE_S / (mean kernel time just before and after)

The kernel never changes with polynet, so a change to polynet moves
reference seconds exactly as it moves raw seconds at fixed machine speed.
Raw times are kept in the run's report.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass

import numpy as np

# About the kernel's time on the machine the benchmark was written on
# (2 vCPUs, Python 3.11, numpy 2.4); it only sets the scale of the unit.
REFERENCE_S = 0.021
SAMPLE_SHARE = 0.2

_rng = np.random.default_rng(20070)


def _edges(n_vertices, n_edges, dim):
    i = _rng.integers(0, n_vertices, n_edges)
    j = (i + 1 + _rng.integers(0, n_vertices - 1, n_edges)) % n_vertices
    return _rng.random((n_vertices, dim)), i, j


_BIG = _edges(1800, 68_000, 3)
_SMALL = _edges(300, 1_800, 2)


def _gradient(x, i, j):
    delta = x[i] - x[j]
    dist = np.linalg.norm(delta, axis=1)
    coef = (dist - 0.5) / dist
    grad = np.zeros_like(x)
    np.add.at(grad, i, coef[:, None] * delta)
    np.add.at(grad, j, -coef[:, None] * delta)
    return grad


def _element_loop(m):
    elements = []
    for c in itertools.product(range(m), repeat=3):
        for perm in itertools.permutations(range(3)):
            corner = list(c)
            tet = [tuple(corner)]
            for axis in perm:
                corner[axis] += 1
                tet.append(tuple(corner))
            elements.append(tet)
    return len(elements)


def kernel_time() -> float:
    """Wall time of one run of the fixed kernel (~0.02 s)."""
    start = time.perf_counter()
    _gradient(*_BIG)
    for _ in range(25):
        _gradient(*_SMALL)
    _element_loop(9)
    return time.perf_counter() - start


class Speed:
    """Kernel samples between units of work.

    A sample is the mean of as many kernel runs as take about SAMPLE_SHARE
    of the unit before it (at least one), so a long unit, such as a CLI run
    on both cores, gets a steadier sample.  The first sample, before any
    unit, is sized for a unit of `unit_s`, the expected length of one.
    """

    def __init__(self, unit_s: float = 0.0):
        first = kernel_time()
        runs = max(1, round(SAMPLE_SHARE * unit_s / first))
        self._last = statistics.mean(kernel_time() for _ in range(runs))

    def scale(self, unit_s: float) -> float:
        """REFERENCE_S over the mean kernel time around a unit of work that
        took `unit_s`; call it right after the unit."""
        runs = max(1, round(SAMPLE_SHARE * unit_s / self._last))
        now = statistics.mean(kernel_time() for _ in range(runs))
        scale = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale


@dataclass
class Pass:
    raw_s: float  # wall time of the pass's units of work
    ref_s: float  # the same in reference seconds
    result: object


def timed_passes(run_pass, count: int, unit_s: float) -> list[Pass]:
    """`count` closed-loop passes `run_pass(speed) -> Pass`, whose units of
    work take about `unit_s` each.

    The count is fixed rather than set by a clock, so runs of one seed
    attempt the same cells, and their failure counts agree exactly.
    """
    speed = Speed(unit_s)
    return [run_pass(speed) for _ in range(count)]
