"""Reference densities and workload sizes, made independently of polynet's solver.

A cell reference is a tight `scipy.optimize.minimize` L-BFGS-B solve on the
public `total_energy`/`energy_gradient`, started from the affine state with
the layer of depth 2hR pinned.  Its gradient tolerance is far below
polynet's `1e-8 * (1 + |E|)`, so it stops only when the energy no longer
decreases in double precision.  The CLI reference is a `--jobs 1` run of the
same config.  References for the default seed and for the fixed panel are
stored in `refs/`; for any other seed they are computed after the timed
region.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import minimize as scipy_minimize

import polynet
import workloads

REFS_DIR = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-6  # Langevin+vol local minima can differ by ~1e-7 (see README)
PROBE_ABS_TOL = 1e-9  # probe deviations are relative already, often ~1e-16


def cell_mesh_and_mask(cell: workloads.Cell):
    source = cell.problem.source
    mesh = polynet.build_stochastic_mesh(source.lattice, source.h, source.dim)
    depth = 2.0 * source.h * source.lattice.R_cov
    bc = polynet.BoundaryCondition(kind="affine-layer", xi=cell.problem.xi, depth=depth)
    mask, targets = polynet.apply_bc(mesh, bc)
    return mesh, mask, targets


def cell_sizes(mesh, mask) -> dict:
    return {
        "vertices": int(mesh.num_vertices),
        "elements": int(mesh.num_elements),
        "free": int((~mask).sum()),
    }


def tight_density(cell: workloads.Cell, mesh, mask, targets) -> float:
    model = cell.problem.model
    free = ~mask
    state = mesh.vertices @ cell.problem.xi.T
    state[mask] = targets[mask]

    def energy_and_grad(x):
        positions = state.copy()
        positions[free] = x.reshape(-1, mesh.dim)
        return (
            polynet.total_energy(mesh, positions, model),
            polynet.energy_gradient(mesh, positions, model)[free].ravel(),
        )

    res = scipy_minimize(
        energy_and_grad, state[free].ravel(), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-13, "ftol": 0.0, "maxiter": 100_000, "maxcor": 20},
    )
    return float(res.fun)


def cell_references(cells, need_values: set[str]) -> dict:
    """{cell id: {"sizes": ..., "value": float or None}} for every cell.

    Sizes are always measured; values only for the ids in need_values.
    """
    out = {}
    for cell in cells:
        mesh, mask, targets = cell_mesh_and_mask(cell)
        entry = {"sizes": cell_sizes(mesh, mask), "value": None}
        if cell.id in need_values:
            entry["value"] = tight_density(cell, mesh, mask, targets)
        out[cell.id] = entry
    return out


def cli_sizes() -> dict:
    sizes = {}
    for m in workloads.CLI_M_LIST:
        mesh = polynet.periodic_mesh_3d(m)
        free = int((mesh.boundary_flags > 2.0 * mesh.h).sum())
        sizes[f"m{m}"] = {
            "vertices": int(mesh.num_vertices),
            "elements": int(mesh.num_elements),
            "free": free,
        }
    return sizes


def cli_reference(config: Path, out_dir: Path) -> dict:
    run = workloads.run_cli(config, out_dir, jobs=1)
    if run.error is not None or run.exit_code != 0:
        raise RuntimeError(f"reference CLI run failed: {run.error or run.exit_code}")
    return {
        "values": [float(r["value"]) for r in run.rows],
        "probes": run.probes,
    }


def _load(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {"seeds": {}}


def stored(workload: str, seed: int) -> dict | None:
    return _load(workload)["seeds"].get(str(seed))


def stored_cells(workload: str, seed: int) -> dict:
    """{cell id: {"sizes", "value"}} stored for this seed's ladder and for
    the workload's fixed panel, which every seed shares."""
    data = _load(workload)
    seed_cells = data["seeds"].get(str(seed), {}).get("cells", {})
    return {**data.get("panel", {}), **seed_cells}


def store(workload: str, seed: int, entry: dict, meta: dict, panel: dict | None) -> Path:
    REFS_DIR.mkdir(exist_ok=True)
    data = _load(workload)
    data["meta"] = meta
    data["seeds"][str(seed)] = entry
    if panel is not None:
        data["panel"] = panel
    path = REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), np.finfo(float).tiny)


def write_references(name: str, seed: int, out, machine: dict):
    meta = {
        "machine": machine,
        "rel_tol": REL_TOL,
        "probe_abs_tol": PROBE_ABS_TOL,
    }
    if name == workloads.CLI_WORKLOAD:
        config = workloads.write_cli_config(seed, out / f"cli-seed{seed}")
        entry = cli_reference(config, config.parent / "ref")
        entry["sizes"] = cli_sizes()
        meta["method"] = "polynet homogenize --jobs 1 on the same config"
        panel = None
    else:
        cells = workloads.make_cells(name, seed)
        refs = cell_references(cells, {c.id for c in cells})
        entry = {"cells": {c.id: refs[c.id] for c in cells if not c.panel}}
        panel = {c.id: refs[c.id] for c in cells if c.panel} or None
        meta["method"] = (
            "scipy L-BFGS-B on total_energy/energy_gradient from the affine state, "
            "gtol 1e-13, ftol 0"
        )
    return store(name, seed, entry, meta, panel)
