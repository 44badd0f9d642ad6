"""The benchmark's span recorder finds every polynet function it traces.

`perfbench/spans.py` wraps polynet functions by module and name; a rename
under `src/` would make its traced runs fail or go blind.  This installs
the recorder, checks every hook, and checks that uninstalling restores the
originals.
"""

from pathlib import Path

import numpy as np

import polynet
from polynet import EnergyModel, PairPotential, StochasticCell, StochasticLatticeSpec, cli

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
