"""Span recorder for the traced run, wrapping polynet's public functions.

Each wrapper records one span (name, start, end, parent span, attributes)
and is installed under every name a polynet module looks the function up
by, so calls between modules go through it; nothing under `src/` changes.
Spans stay in memory and are written out when the run ends.

`polynet homogenize --jobs 2` runs its sweep cells in pool workers.  Spans
recorded there stay in the worker, so the pool phase is one `cli.pool`
span and the per-layer numbers cover only the work done in this process.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import polynet
from polynet import assembly, chains, cli, homogenize, meshing, optim, volumetric

MODULES = (polynet, assembly, chains, cli, homogenize, meshing, optim, volumetric)

# (module, public function, span name)
FUNCTIONS = [
    (meshing, "periodic_mesh_2d", "meshing.build"),
    (meshing, "periodic_mesh_3d", "meshing.build"),
    (meshing, "build_stochastic_mesh", "meshing.build"),
    (meshing, "stochastic_lattice", "meshing.lattice"),
    (meshing, "delaunay_triangulate", "meshing.delaunay"),
    (volumetric, "w_vol_eta_j", "volumetric.jac"),
    (assembly, "total_energy", "assembly.energy"),
    (assembly, "energy_gradient", "assembly.grad"),
    (assembly, "apply_bc", "assembly.apply_bc"),
    (optim, "minimize", "optim.minimize"),
    (homogenize, "solve_cell_problem", "homogenize.cell"),
    (homogenize, "estimate_whom", "homogenize.sweep"),
    (homogenize, "frame_invariance_probe", "homogenize.probe"),
    (homogenize, "isotropy_probe", "homogenize.probe"),
    (cli, "main", "cli.main"),
]
METHODS = [
    (chains.PairPotential, "energy", "chains.pair"),
    (chains.PairPotential, "derivative", "chains.pair"),
]

POOL_NOTE = (
    "sweep cells of --jobs 2 run in pool workers and are not traced; "
    "the pool phase is one cli.pool span"
)


def _result_attrs(name: str, result):
    if name == "meshing.build":
        return {"vertices": result.num_vertices, "elements": result.num_elements}
    if name == "optim.minimize":
        return {"iterations": result.iterations}
    return None


class Recorder:
    """In-memory spans: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, attrs=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = attrs
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, {"error": type(exc).__name__})
                raise
            self.end(index, _result_attrs(name, result))
            return result

        return traced

    def install(self) -> None:
        for home, fname, span in FUNCTIONS:
            original = getattr(home, fname)
            traced = self.wrap(span, original)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, traced)
        for cls, mname, span in METHODS:
            original = cls.__dict__[mname]
            self._restore.append((cls, mname, original))
            setattr(cls, mname, self.wrap(span, original))
        recorder = self

        class TracedPool(ProcessPoolExecutor):
            def __enter__(self):
                self._span = recorder.begin("cli.pool")
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    recorder.end(self._span, {"note": POOL_NOTE})

        self._restore.append((cli, "ProcessPoolExecutor", cli.ProcessPoolExecutor))
        cli.ProcessPoolExecutor = TracedPool

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (see README).

    `spans` is the pass's slice of the recorder's list, starting at index
    `first` of it; parent indices still refer to the whole list.
    """
    spans = [[n, s, e, p - first if p >= first else -1, a] for n, s, e, p, a in spans]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    count = defaultdict(int)
    self_by_layer = defaultdict(float)
    attr_sum = defaultdict(int)
    returned_minimize = set()
    failures = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        total[name] += dur
        count[name] += 1
        self_by_layer[name.split(".")[0]] += dur - child[i]
        attrs = attrs or {}
        for key in ("vertices", "elements", "iterations"):
            attr_sum[key] += attrs.get(key, 0)
        if name == "optim.minimize":
            if "error" in attrs:
                failures += 1
            else:
                returned_minimize.add(i)
    evals = sum(
        1 for name, _, _, parent, _ in spans
        if name in ("assembly.energy", "assembly.grad") and parent in returned_minimize
    )

    def per_call_ms(name):
        return 1000.0 * total[name] / count[name] if count[name] else 0.0

    iterations = attr_sum["iterations"]
    return {
        "meshing.build_s": total["meshing.build"],
        "meshing.builds": count["meshing.build"],
        "meshing.lattice_s": total["meshing.lattice"],
        "meshing.delaunay_s": total["meshing.delaunay"],
        "meshing.vertices": attr_sum["vertices"],
        "meshing.elements": attr_sum["elements"],
        "chains.pair_s": total["chains.pair"],
        "chains.pair_calls": count["chains.pair"],
        "volumetric.jac_s": total["volumetric.jac"],
        "volumetric.calls": count["volumetric.jac"],
        "assembly.energy_calls": count["assembly.energy"],
        "assembly.grad_calls": count["assembly.grad"],
        "assembly.energy_s": total["assembly.energy"],
        "assembly.grad_s": total["assembly.grad"],
        "assembly.energy_ms_per_call": per_call_ms("assembly.energy"),
        "assembly.grad_ms_per_call": per_call_ms("assembly.grad"),
        "assembly.apply_bc_s": total["assembly.apply_bc"],
        "optim.iterations": iterations,
        "optim.evals_per_iter": evals / iterations if iterations else 0.0,
        "optim.self_s": self_by_layer["optim"],
        "optim.failures": failures,
        "homogenize.cells": count["homogenize.cell"],
        "homogenize.cell_s": total["homogenize.cell"],
        "homogenize.self_s": self_by_layer["homogenize"],
        "homogenize.probe_s": total["homogenize.probe"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_by_layer["cli"],
    }
