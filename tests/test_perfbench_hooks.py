"""The benchmark's span recorder finds every polynet function it traces,
and the names the benchmark reads from results and outputs exist.

`perfbench/spans.py` wraps polynet functions by module and name; a rename
under `src/` would make its traced runs fail or go blind.  This installs
the recorder, checks every hook, and checks that uninstalling restores the
originals.  The benchmark also reads minimize's iterations, a cell solve's
value, iterations and n_free, and the homogenize.csv columns value,
iterations and status; a rename of those fails here too.
"""

import csv
import json
import numbers
from pathlib import Path

import numpy as np

import polynet
from polynet import (BoundaryCondition, CellProblem, EnergyModel, PairPotential, StochasticCell,
                     StochasticLatticeSpec, cli, minimize, solve_cell_problem)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COARSE_LATTICE = StochasticLatticeSpec(kind="jittered-grid", intensity=1.0, r_min=0.3,
                                       R_cov=1.0, seed=0)


def test_span_recorder_wraps_every_hook_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [(home, name, getattr(home, name)) for home, name, _ in spans.FUNCTIONS]
    methods = [(cls, name, cls.__dict__[name]) for cls, name, _ in spans.METHODS]
    pool = cli.ProcessPoolExecutor
    recorder = spans.Recorder()
    recorder.install()
    try:
        for home, name, original in originals:
            traced = getattr(home, name)
            assert traced is not original and traced.__wrapped__ is original, name
        for cls, name, original in methods:
            assert cls.__dict__[name].__wrapped__ is original, name
        assert cli.ProcessPoolExecutor is not pool and issubclass(cli.ProcessPoolExecutor, pool)
        # looked up on the package, as callers do, the sweep and the cell
        # solves and mesh builds it makes all go through the wrappers; a
        # stochastic source, as periodic sweeps with one restart solve no
        # cell problem and build no mesh
        spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0))
        source = StochasticCell(COARSE_LATTICE, h=0.5, dim=2)
        polynet.estimate_whom(np.diag([1.1, 0.9]), [0.5, 0.25], spring, source)
        names = [span[0] for span in recorder.spans]
        assert names.count("homogenize.sweep") == 1
        assert names.count("homogenize.cell") == 2
        assert names.count("meshing.build") == 2
        assert names.count("meshing.delaunay") == 2
    finally:
        recorder.uninstall()
    for home, name, original in originals:
        assert getattr(home, name) is original, name
    for cls, name, original in methods:
        assert cls.__dict__[name] is original, name
    assert cli.ProcessPoolExecutor is pool


def test_benchmark_reads_the_solve_result(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0))
    source = StochasticCell(COARSE_LATTICE, h=0.1, dim=2)
    xi = np.diag([1.1, 0.9])
    bc = BoundaryCondition(kind="affine-layer", xi=xi, depth=2.0 * source.h)
    result = minimize(source.mesh(), spring, bc)
    iterations = spans._result_attrs("optim.minimize", result)["iterations"]
    assert iterations == result.iterations > 0
    solved = solve_cell_problem(CellProblem(xi=xi, source=source, model=spring))
    for name in ("value", "iterations", "n_free"):
        assert isinstance(getattr(solved, name), numbers.Real), name
    assert solved.n_free > 0

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"pair": {"kind": "quadratic-spring"}},
        "mesh": {"kind": "stochastic", "dim": 2, "h": 0.15,
                 "lattice": {"kind": "jittered-grid", "intensity": 1.0, "r_min": 0.3,
                             "R_cov": 1.0, "seed": 0}},
        "homogenize": {"xi_list": [xi.tolist()], "h_list": [0.15, 0.1]},
    }))
    out = tmp_path / "out"
    assert cli.main(["homogenize", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "homogenize.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:  # every cell converges
        assert row["status"] == "ok" and int(row["iterations"]) > 0
        assert np.isfinite(float(row["value"]))
