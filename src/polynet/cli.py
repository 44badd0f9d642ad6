"""Command-line front end driven by a JSON configuration file.

Subcommands: mesh, minimize, homogenize, counterexample, lattice-check.
Every command is deterministic given its config (seeds live in the config;
--seed overrides).  Exit codes: 0 success or honest non-convergence, 2
config error, 3 infeasible lattice spec, 4 solver or sweep failure.  All
floating-point output carries 17 significant digits.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from .assembly import (
    BoundaryCondition,
    CoincidentVerticesError,
    EnergyModel,
    FullyConstrainedError,
    InvertedElementError,
)
from .chains import ChainParams, PairPotential
from .homogenize import (
    PeriodicCell,
    StochasticCell,
    anisotropy_counterexample,
    build_cell_mesh,
    default_layer_depth,
    random_rotations,
    summary_dict,
    sweep,
    write_estimates_csv,
)
from .meshing import (
    DegenerateGeometryError,
    InfeasibleLatticeError,
    StochasticLatticeSpec,
    check_admissibility,
    stochastic_lattice,
    write_mesh,
)
from .optim import MinimizeSettings, minimize
from .volumetric import VolumetricParams


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit floats


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_to_json(v, indent + 1) for v in list(obj)]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [
            f"{json.dumps(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj) -> None:
    Path(path).write_text(_to_json(obj) + "\n")


# ---------------------------------------------------------------------------
# Config parsing (unknown keys are errors)


def _check_keys(section: dict, allowed: set[str], ctx: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")


def _integer(value, ctx: str, minimum: int | None = None) -> int:
    """A JSON integer (4.0 counts, 2.7 and "4" do not), at least `minimum`."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{ctx} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{ctx} must be at least {minimum}")
    return int(value)


def _number(value, ctx: str) -> float:
    """A finite JSON number: not a string or boolean, nor NaN or Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx} must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{ctx} must be a finite number, not {value!r}")
    return number


def _list(value, ctx: str, minimum: int) -> list:
    """A JSON list of at least `minimum` entries."""
    if not isinstance(value, list) or len(value) < minimum:
        raise ConfigError(f"{ctx} must be a list of {minimum} or more entries, not {value!r}")
    return value


def _xi(value, dim: int, ctx: str) -> np.ndarray:
    """A dim x dim matrix (a list of rows) of finite JSON numbers."""
    if not (isinstance(value, list) and len(value) == dim
            and all(isinstance(row, list) and len(row) == dim for row in value)):
        raise ConfigError(f"{ctx} must be a dim x dim matrix of finite numbers")
    return np.array([[_number(entry, ctx) for entry in row] for row in value])


def _need(cfg: dict, key: str, ctx: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{ctx}: missing required section {key!r}")
    return cfg[key]


TOP_KEYS = {
    "seed", "out", "model", "mesh", "bc", "solver",
    "homogenize", "counterexample", "minimize",
}


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, TOP_KEYS, "config")
    return cfg


def build_model(cfg: dict) -> EnergyModel:
    section = _need(cfg, "model")
    _check_keys(section, {"pair", "f", "volumetric"}, "model")
    pair_cfg = _need(section, "pair", "model")
    kind = _need(pair_cfg, "kind", "model.pair")
    try:  # the parameter checks of the pair, volumetric term and model
        if kind == "langevin-chain":
            _check_keys(pair_cfg, {"kind", "k", "beta", "c", "n"}, "model.pair")
            defaults = {"k": 1.0, "beta": 1.0, "c": 0.0, "n": 8.0}
            params = ChainParams(**{
                key: _number(pair_cfg.get(key, default), f"model.pair: {key}")
                for key, default in defaults.items()
            })
            pair = PairPotential.langevin_chain(params)
        elif kind == "quadratic-spring":
            _check_keys(pair_cfg, {"kind", "stiffness"}, "model.pair")
            pair = PairPotential.quadratic_spring(
                _number(pair_cfg.get("stiffness", 1.0), "model.pair: stiffness"))
        else:
            raise ConfigError(f"model.pair: unknown kind {kind!r}")
        vol_cfg = section.get("volumetric")
        vol = None
        if vol_cfg is not None:
            _check_keys(vol_cfg, {"K", "eta"}, "model.volumetric")
            vol = VolumetricParams(
                K=_number(vol_cfg.get("K", 1.0), "model.volumetric: K"),
                eta=_number(vol_cfg.get("eta", 0.0), "model.volumetric: eta"),
            )
        return EnergyModel(pair=pair, f=_number(section.get("f", 1.0), "model: f"), vol=vol)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def build_lattice(cfg: dict, seed_override: int | None) -> StochasticLatticeSpec:
    _check_keys(cfg, {"kind", "intensity", "r_min", "R_cov", "seed"}, "mesh.lattice")
    ctx = "mesh.lattice"
    kind = _need(cfg, "kind", ctx)
    fields = {key: _number(_need(cfg, key, ctx), f"{ctx}: {key}")
              for key in ("intensity", "r_min", "R_cov")}
    seed = _integer(cfg.get("seed", 0) if seed_override is None else seed_override,
                    f"{ctx}: seed", 0)
    try:
        return StochasticLatticeSpec(kind=kind, seed=seed, **fields)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _diagonal(value, ctx: str) -> str:
    if value not in ("nw", "ne"):
        raise ConfigError(f"{ctx}: diagonal must be 'nw' or 'ne'")
    return value


def _scale(value, periodic: bool, ctx: str) -> int | float:
    """A mesh scale: m >= 1 cells per side (periodic) or h > 0 (stochastic)."""
    if periodic:
        return _integer(value, f"{ctx}: m", 1)
    h = _number(value, f"{ctx}: h")
    if not h > 0.0:
        raise ConfigError(f"{ctx}: h must be positive")
    return h


def parse_mesh_section(cfg: dict, seed_override: int | None) -> PeriodicCell | StochasticCell:
    section = _need(cfg, "mesh")
    kind = _need(section, "kind", "mesh")
    if kind == "periodic":
        _check_keys(section, {"kind", "dim", "m", "diagonal"}, "mesh")
    elif kind == "stochastic":
        _check_keys(section, {"kind", "dim", "h", "lattice"}, "mesh")
    else:
        raise ConfigError(f"mesh: unknown kind {kind!r}")
    dim = _integer(section.get("dim", 3), "mesh: dim")
    if dim not in (2, 3):
        raise ConfigError("mesh: dim must be 2 or 3")
    if kind == "periodic":
        if dim == 3 and "diagonal" in section:
            raise ConfigError("mesh: diagonal is for 2D meshes only")
        return PeriodicCell(m=_scale(_need(section, "m", "mesh"), True, "mesh"), dim=dim,
                            diagonal=_diagonal(section.get("diagonal", "nw"), "mesh"))
    h = _scale(_need(section, "h", "mesh"), False, "mesh")
    lattice = build_lattice(_need(section, "lattice", "mesh"), seed_override)
    return StochasticCell(lattice=lattice, h=h, dim=dim)


def build_bc(cfg: dict, source: PeriodicCell | StochasticCell, mesh) -> BoundaryCondition:
    section = _need(cfg, "bc")
    kind = _need(section, "kind", "bc")
    xi = _xi(_need(section, "xi", "bc"), source.dim, "bc: xi")
    if kind == "affine-layer":
        _check_keys(section, {"kind", "xi", "depth"}, "bc")
        depth = section.get("depth", "2h")
        if depth == "2h":
            depth = 2.0 * mesh.h
        elif depth == "2hR":
            if not isinstance(source, StochasticCell):
                raise ConfigError("bc: depth rule '2hR' needs a stochastic mesh")
            depth = default_layer_depth(source, mesh)
        else:
            depth = _number(depth, "bc: depth")
            if depth < 0.0:
                raise ConfigError("bc: depth must be nonnegative")
        return BoundaryCondition(kind="affine-layer", xi=xi, depth=depth)
    if kind == "dirichlet-face-free-traction":
        _check_keys(section, {"kind", "xi", "faces"}, "bc")
        faces = _list(_need(section, "faces", "bc"), "bc: faces", 1)
        names = [axis + side for axis in "xyz"[: source.dim] for side in "-+"]
        unknown = [face for face in faces if face not in names]
        if unknown:
            raise ConfigError(f"bc: faces must be names from {names}, not {unknown}")
        return BoundaryCondition(kind=kind, xi=xi, faces=tuple(faces))
    raise ConfigError(f"bc: unknown kind {kind!r}")


def build_settings(cfg: dict) -> tuple[MinimizeSettings, int]:
    section = cfg.get("solver", {})
    _check_keys(section, {"grad_tol", "max_iters", "restarts"}, "solver")
    grad_tol = section.get("grad_tol")
    grad_tol = None if grad_tol is None else _number(grad_tol, "solver: grad_tol")
    max_iters = _integer(section.get("max_iters", 2000), "solver: max_iters")
    try:
        settings = MinimizeSettings(grad_tol=grad_tol, max_iters=max_iters)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    return settings, _integer(section.get("restarts", 1), "solver: restarts", 1)


def _out_dir(cfg: dict, args) -> Path:
    """The output directory, checked before any work; a command creates it
    only when it writes, so a config error leaves nothing behind."""
    key = "--out" if args.out is not None else "out"
    out = args.out if args.out is not None else cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"{key} must be a path, not {out!r}")
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{key} {out!r}: {str(existing)!r} is not a directory")
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_mesh(cfg: dict, args, out: Path) -> int:
    source = parse_mesh_section(cfg, args.seed)
    mesh = build_cell_mesh(source)
    out.mkdir(parents=True, exist_ok=True)
    write_mesh(mesh, out / "mesh.txt")
    print(f"h = {mesh.h:.17g}")
    print(f"N_el = {mesh.num_elements}")
    if isinstance(source, StochasticCell):
        report = _lattice_report(source)
        write_json(out / "admissibility.json", report)
    return 0


def _lattice_report(source: StochasticCell) -> dict:
    lattice = source.lattice
    box = (np.zeros(source.dim), np.ones(source.dim) / source.h)
    points = stochastic_lattice(lattice, box)
    rep = check_admissibility(points, box, lattice.r_min, lattice.R_cov)
    return {
        "kind": lattice.kind,
        "n_points": int(points.shape[0]),
        "covering_ok": rep.covering_ok,
        "separation_ok": rep.separation_ok,
        "measured_R": rep.measured_R,
        "measured_r": rep.measured_r,
        "delaunay_quality": rep.delaunay_quality,
    }


def cmd_lattice_check(cfg: dict, args, out: Path) -> int:
    source = parse_mesh_section(cfg, args.seed)
    if not isinstance(source, StochasticCell):
        raise ConfigError("lattice-check needs a stochastic mesh section")
    report = _lattice_report(source)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "admissibility.json", report)
    print(_to_json(report))
    return 0


def cmd_minimize(cfg: dict, args, out: Path) -> int:
    model = build_model(cfg)
    source = parse_mesh_section(cfg, args.seed)
    mesh = build_cell_mesh(source)
    bc = build_bc(cfg, source, mesh)
    settings, _ = build_settings(cfg)
    min_cfg = cfg.get("minimize", {})
    _check_keys(min_cfg, {"write_positions"}, "minimize")
    write_positions = min_cfg.get("write_positions", False)
    if not isinstance(write_positions, bool):
        raise ConfigError(f"minimize: write_positions must be true or false, "
                          f"not {write_positions!r}")
    result = minimize(mesh, model, bc, settings=settings)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "energy": result.energy,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    write_json(out / "result.json", payload)
    print(_to_json(payload))
    if write_positions:
        lines = [f"{mesh.dim} {mesh.num_vertices}"]
        for row in result.state:
            lines.append(" ".join(f"{c:.17g}" for c in row))
        (out / "deformed_positions.txt").write_text("\n".join(lines) + "\n")
    return 0


def _probe_settings(section) -> tuple[int, int, int]:
    """(frame rotations, isotropy rotations, seed) of homogenize.probes."""
    if section is None:
        return 0, 0, 0
    ctx = "homogenize.probes"
    _check_keys(section, {"frame_rotations", "isotropy_rotations", "seed"}, ctx)
    return tuple(_integer(section.get(key, 0), f"{ctx}: {key}", 0)
                 for key in ("frame_rotations", "isotropy_rotations", "seed"))


def _on_cpu(cpu, solve, share):
    """solve(share) in this process, pinned to the one CPU `cpu`."""
    os.sched_setaffinity(0, {cpu})
    return solve(share)


def _run_shares(solve, shares):
    """solve over the shares, one process each, this one included:
    solve_cells' `run` for --jobs.  Each share but the first is one task of
    a forked worker, and this process solves the first meanwhile.  A
    share's outcomes never depend on the process that solves it.
    """
    if len(shares) <= 1:
        return map(solve, shares)
    # Share k runs on the k-th allowed CPU (cyclically), this process's
    # share on the first.  Unpinned, a forked worker can stay on its parent's
    # CPU for about a second and the two time-share it; and the scheduler
    # leaves an unpinned parent wherever it is, so the parent is pinned too.
    # The caller's mask comes back when the pool closes.
    if hasattr(os, "sched_setaffinity"):
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        placed = [partial(_on_cpu, cpus[k % len(cpus)], solve) for k in range(len(shares))]
    else:
        mask, placed = None, [solve] * len(shares)
    # Frozen while the workers fork, this process's objects stay out of
    # their collections (no copy-on-write of their headers).  Freezing
    # also restarts the collector's generation counts, so every run hands
    # an in-process caller the same collector state: its next full
    # collection does not fall wherever this run's allocations left it.
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=len(shares) - 1) as pool:
            tasks = [pool.submit(fn, share) for fn, share in zip(placed[1:], shares[1:])]
            return [placed[0](shares[0]), *(task.result() for task in tasks)]
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)
        gc.unfreeze()


def cmd_homogenize(cfg: dict, args, out: Path) -> int:
    model = build_model(cfg)
    source = parse_mesh_section(cfg, args.seed)
    section = _need(cfg, "homogenize")
    _check_keys(
        section,
        {"xi_list", "m_list", "h_list", "n_realizations", "probes"},
        "homogenize",
    )
    xi_list = [_xi(x, source.dim, "homogenize: every xi")
               for x in _list(_need(section, "xi_list", "homogenize"), "homogenize: xi_list", 1)]
    settings, restarts = build_settings(cfg)
    seed = _integer(cfg.get("seed", 0) if args.seed is None else args.seed, "seed", 0)

    periodic = isinstance(source, PeriodicCell)
    # the other mesh kind's keys would be ignored
    for key in ("h_list", "n_realizations") if periodic else ("m_list",):
        if key in section:
            kind = "stochastic" if periodic else "periodic"
            raise ConfigError(f"homogenize: {key} is for {kind} meshes only")
    scale_key = "m_list" if periodic else "h_list"
    # a sweep needs at least 2 scales
    scales = [_scale(value, periodic, "homogenize")
              for value in _list(_need(section, scale_key, "homogenize"),
                                 f"homogenize: {scale_key}", 2)]
    n_real = 1 if periodic else _integer(section.get("n_realizations", 1),
                                         "homogenize: n_realizations", 1)
    n_frame, n_iso, probe_seed = _probe_settings(section.get("probes"))
    # a process beyond the allowed CPUs would only time-share one of them
    jobs = (min(args.jobs, len(os.sched_getaffinity(0)))
            if hasattr(os, "sched_getaffinity") else args.jobs)
    if not periodic and jobs > 1:
        # lattice, Delaunay and factorization: imported once, not in each worker
        for module in ("scipy.spatial", "scipy.sparse.linalg"):
            importlib.import_module(module)
    # both probes draw from probe_seed, so one list holds both prefixes
    rotations = random_rotations(source.dim, max(n_frame, n_iso), probe_seed)
    estimates, probes = sweep(
        xi_list, scales, model, source, n_real, seed, restarts, settings,
        frame=rotations[:n_frame], iso=rotations[:n_iso], parts=jobs, run=_run_shares)

    statuses = Counter(rec.status for est in estimates if not isinstance(est, Exception)
                       for s in est.per_h for rec in s.records)
    # the cells in the means: converged or stopped at max_iters
    kept = statuses["ok"] + statuses["max_iters"]
    out.mkdir(parents=True, exist_ok=True)
    if kept:
        write_estimates_csv(out / "homogenize.csv", estimates)
    write_json(out / "summary.json", summary_dict(estimates, probes))
    print(f"cells ok: {statuses['ok']}")
    print(f"cells max_iters: {statuses['max_iters']}")
    return 0 if kept >= 1 else 4


def cmd_counterexample(cfg: dict, args, out: Path) -> int:
    section = cfg.get("counterexample", {})
    _check_keys(section, {"stiffness", "f", "diagonal"}, "counterexample")
    stiffness = _number(section.get("stiffness", 1.0), "counterexample: stiffness")
    f = _number(section.get("f", 1.0), "counterexample: f")
    diagonal = _diagonal(section.get("diagonal", "nw"), "counterexample")
    try:
        result = anisotropy_counterexample(stiffness, f, diagonal)
    except ValueError as exc:
        raise ConfigError(f"counterexample: {exc}") from exc
    payload = {
        "stiffness_diag": result.stiffness_diag,
        "stiffness_antidiag": result.stiffness_antidiag,
        "ratio": result.ratio,
    }
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "counterexample.json", payload)
    print(_to_json(payload))
    return 0


COMMANDS = {
    "mesh": cmd_mesh,
    "minimize": cmd_minimize,
    "homogenize": cmd_homogenize,
    "counterexample": cmd_counterexample,
    "lattice-check": cmd_lattice_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polynet",
        description="Spring-network elasticity and homogenization runs",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="processes, this one included, that solve homogenize cells, "
                             "each on its own allowed CPU (at most one per allowed CPU); "
                             "periodic sweeps with one restart run in this process; "
                             "this process's CPU mask is restored afterwards")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args, _out_dir(cfg, args))
    except (ConfigError, FullyConstrainedError, DegenerateGeometryError) as exc:
        # a degenerate mesh or lattice: the scale h is too coarse for it
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleLatticeError as exc:
        print(f"infeasible lattice spec: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, InvertedElementError, CoincidentVerticesError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
