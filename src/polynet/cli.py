"""Command-line front end driven by a JSON configuration file.

Subcommands: mesh, minimize, homogenize, counterexample, lattice-check.
Every command is deterministic given its config (seeds live in the config;
--seed overrides).  Exit codes: 0 success or honest non-convergence, 2
config error, 3 infeasible lattice spec, 4 solver or sweep failure.  All
floating-point output carries 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .assembly import BoundaryCondition, EnergyModel, FullyConstrainedError
from .chains import ChainParams, PairPotential
from .homogenize import (
    PeriodicCell,
    StochasticCell,
    anisotropy_counterexample,
    at_scale,
    build_cell_mesh,
    cell_estimator,
    default_layer_depth,
    estimate_whom,
    failure_reason,
    frame_invariance_probe,
    isotropy_probe,
    summary_dict,
    write_estimates_csv,
)
from .meshing import (
    InfeasibleLatticeError,
    StochasticLatticeSpec,
    check_admissibility,
    stochastic_lattice,
    write_mesh,
)
from .optim import MinimizeSettings, OptimizationError, minimize
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
    _check_keys(section, {"pair", "f", "weight_mode", "volumetric"}, "model")
    pair_cfg = _need(section, "pair", "model")
    kind = _need(pair_cfg, "kind", "model.pair")
    if kind == "langevin-chain":
        _check_keys(pair_cfg, {"kind", "k", "beta", "c", "n", "l"}, "model.pair")
        params = ChainParams(
            k=float(pair_cfg.get("k", 1.0)),
            beta=float(pair_cfg.get("beta", 1.0)),
            c=float(pair_cfg.get("c", 0.0)),
            n=float(pair_cfg.get("n", 8.0)),
            l=float(pair_cfg.get("l", 1.0)),
        )
        pair = PairPotential.langevin_chain(params)
    elif kind == "quadratic-spring":
        _check_keys(pair_cfg, {"kind", "stiffness"}, "model.pair")
        pair = PairPotential.quadratic_spring(float(pair_cfg.get("stiffness", 1.0)))
    else:
        raise ConfigError(f"model.pair: unknown kind {kind!r}")
    vol_cfg = section.get("volumetric")
    vol = None
    if vol_cfg is not None:
        _check_keys(vol_cfg, {"K", "eta"}, "model.volumetric")
        vol = VolumetricParams(
            K=float(vol_cfg.get("K", 1.0)), eta=float(vol_cfg.get("eta", 0.0))
        )
    try:
        return EnergyModel(
            pair=pair,
            f=float(section.get("f", 1.0)),
            vol=vol,
            weight_mode=section.get("weight_mode", "uniform-h"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def build_lattice(cfg: dict, seed_override: int | None) -> StochasticLatticeSpec:
    _check_keys(cfg, {"kind", "intensity", "r_min", "R_cov", "seed"}, "mesh.lattice")
    try:
        return StochasticLatticeSpec(
            kind=_need(cfg, "kind", "mesh.lattice"),
            intensity=float(_need(cfg, "intensity", "mesh.lattice")),
            r_min=float(_need(cfg, "r_min", "mesh.lattice")),
            R_cov=float(_need(cfg, "R_cov", "mesh.lattice")),
            seed=int(cfg.get("seed", 0) if seed_override is None else seed_override),
        )
    except ValueError as exc:
        raise ConfigError(f"mesh.lattice: {exc}") from exc


def _diagonal(value, ctx: str) -> str:
    if value not in ("nw", "ne"):
        raise ConfigError(f"{ctx}: diagonal must be 'nw' or 'ne'")
    return value


def _scale(value, periodic: bool, ctx: str) -> int | float:
    """A mesh scale: m >= 1 cells per side (periodic) or h > 0 (stochastic)."""
    if periodic:
        m = int(value)
        if m < 1:
            raise ConfigError(f"{ctx}: m must be at least 1")
        return m
    h = float(value)
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
    dim = int(section.get("dim", 3))
    if dim not in (2, 3):
        raise ConfigError("mesh: dim must be 2 or 3")
    if kind == "periodic":
        return PeriodicCell(m=_scale(_need(section, "m", "mesh"), True, "mesh"), dim=dim,
                            diagonal=_diagonal(section.get("diagonal", "nw"), "mesh"))
    h = _scale(_need(section, "h", "mesh"), False, "mesh")
    lattice = build_lattice(_need(section, "lattice", "mesh"), seed_override)
    return StochasticCell(lattice=lattice, h=h, dim=dim)


def build_bc(cfg: dict, source: PeriodicCell | StochasticCell, mesh) -> BoundaryCondition:
    section = _need(cfg, "bc")
    kind = _need(section, "kind", "bc")
    xi = np.asarray(_need(section, "xi", "bc"), dtype=float)
    if xi.shape != (source.dim,) * 2:
        raise ConfigError("bc: xi must be a dim x dim matrix")
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
            depth = float(depth)
        return BoundaryCondition(kind="affine-layer", xi=xi, depth=depth)
    if kind == "dirichlet-face-free-traction":
        _check_keys(section, {"kind", "xi", "faces"}, "bc")
        faces = tuple(_need(section, "faces", "bc"))
        return BoundaryCondition(kind=kind, xi=xi, faces=faces)
    raise ConfigError(f"bc: unknown kind {kind!r}")


def build_settings(cfg: dict) -> tuple[MinimizeSettings, int]:
    section = cfg.get("solver", {})
    _check_keys(
        section,
        {"grad_tol", "max_iters", "memory", "c1", "c2", "restarts"},
        "solver",
    )
    try:
        settings = MinimizeSettings(
            grad_tol=(None if section.get("grad_tol") is None
                      else float(section["grad_tol"])),
            max_iters=int(section.get("max_iters", 2000)),
            memory=int(section.get("memory", 10)),
            armijo_c1=float(section.get("c1", 1e-4)),
            wolfe_c2=float(section.get("c2", 0.9)),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    restarts = int(section.get("restarts", 1))
    if restarts < 1:
        raise ConfigError("solver: restarts must be at least 1")
    return settings, restarts


def _out_dir(cfg: dict, args) -> Path:
    out = args.out if args.out is not None else cfg.get("out", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_mesh(cfg: dict, args) -> int:
    source = parse_mesh_section(cfg, args.seed)
    out = _out_dir(cfg, args)
    mesh = build_cell_mesh(source)
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


def cmd_lattice_check(cfg: dict, args) -> int:
    source = parse_mesh_section(cfg, args.seed)
    if not isinstance(source, StochasticCell):
        raise ConfigError("lattice-check needs a stochastic mesh section")
    out = _out_dir(cfg, args)
    report = _lattice_report(source)
    write_json(out / "admissibility.json", report)
    print(_to_json(report))
    return 0


def cmd_minimize(cfg: dict, args) -> int:
    model = build_model(cfg)
    source = parse_mesh_section(cfg, args.seed)
    mesh = build_cell_mesh(source)
    bc = build_bc(cfg, source, mesh)
    settings, _ = build_settings(cfg)
    min_cfg = cfg.get("minimize", {})
    _check_keys(min_cfg, {"write_positions"}, "minimize")
    out = _out_dir(cfg, args)
    result = minimize(mesh, model, bc, settings=settings)
    payload = {
        "energy": result.energy,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    write_json(out / "result.json", payload)
    print(_to_json(payload))
    if min_cfg.get("write_positions", False):
        lines = [f"{mesh.dim} {mesh.num_vertices}"]
        for row in result.state:
            lines.append(" ".join(f"{c:.17g}" for c in row))
        (out / "deformed_positions.txt").write_text("\n".join(lines) + "\n")
    return 0


def _sweep_one(job) -> tuple[object, str | None]:
    """One xi's sweep as (estimate, None), or (None, reason) when it fails."""
    xi, scales, model, source, n_real, seed, restarts, settings = job
    try:
        est = estimate_whom(
            xi, scales, model, source,
            n_realizations=n_real, seed=seed, restarts=restarts,
            settings=settings, on_error="record",
        )
    except (ValueError, RuntimeError) as exc:  # polynet errors; bugs surface
        return None, failure_reason(exc)
    return est, None


def cmd_homogenize(cfg: dict, args) -> int:
    model = build_model(cfg)
    source = parse_mesh_section(cfg, args.seed)
    section = _need(cfg, "homogenize")
    _check_keys(
        section,
        {"xi_list", "m_list", "h_list", "n_realizations", "probes"},
        "homogenize",
    )
    xi_list = [np.asarray(x, dtype=float) for x in _need(section, "xi_list", "homogenize")]
    for xi in xi_list:
        if xi.shape != (source.dim,) * 2:
            raise ConfigError("homogenize: every xi must be dim x dim")
    settings, restarts = build_settings(cfg)
    seed = int(cfg.get("seed", 0) if args.seed is None else args.seed)

    periodic = isinstance(source, PeriodicCell)
    scale_key = "m_list" if periodic else "h_list"
    scales = [_scale(value, periodic, "homogenize")
              for value in _need(section, scale_key, "homogenize")]
    n_real = 1 if periodic else int(section.get("n_realizations", 1))
    if len(scales) < 2:
        raise ConfigError("homogenize: a sweep needs at least 2 scales")
    if n_real < 1:
        raise ConfigError("homogenize: n_realizations must be at least 1")

    jobs = [
        (xi, scales, model, source, n_real, seed, restarts, settings)
        for xi in xi_list
    ]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_one, jobs))
    else:
        outcomes = [_sweep_one(job) for job in jobs]
    # indexed like xi_list; a failed xi keeps its slot as None
    estimates = [est for est, _ in outcomes]
    failures = [
        {"xi_id": xi_id, "error": error}
        for xi_id, (_, error) in enumerate(outcomes)
        if error is not None
    ]
    ok_cells = sum(s.stats.n for est in estimates if est is not None for s in est.per_h)
    out = _out_dir(cfg, args)
    if ok_cells:
        write_estimates_csv(out / "homogenize.csv", estimates)
    probes = _run_probes(section.get("probes"), at_scale(source, scales[-1]), model,
                         xi_list, n_real, seed, restarts, settings)
    summary = summary_dict(estimates, probes)
    if failures:
        summary["failed"] = failures
    write_json(out / "summary.json", summary)
    print(f"cells ok: {ok_cells}")
    return 0 if ok_cells >= 1 else 4


def _run_probes(probe_cfg, source, model, xi_list, n_real, seed, restarts, settings):
    """Probe entries by xi index at the finest scale `source`; an xi whose
    estimator fails gets {"error": reason} instead."""
    if not probe_cfg:
        return {}
    _check_keys(probe_cfg, {"frame_rotations", "isotropy_rotations", "seed"},
                "homogenize.probes")
    probe_seed = int(probe_cfg.get("seed", 0))
    estimator = cell_estimator(source, model, n_realizations=n_real, seed=seed,
                               restarts=restarts, settings=settings)
    out = {}
    n_frame = int(probe_cfg.get("frame_rotations", 0))
    n_iso = int(probe_cfg.get("isotropy_rotations", 0))
    for xi_id, xi in enumerate(xi_list):
        entry = {}
        try:
            if n_frame > 0:
                entry["frame_invariance_deviation"] = frame_invariance_probe(
                    estimator, xi, rotation_count=n_frame, seed=probe_seed
                )
            if n_iso > 0:
                entry["isotropy_deviation"] = isotropy_probe(
                    estimator, xi, rotation_count=n_iso, seed=probe_seed
                )
        except (ValueError, RuntimeError) as exc:  # polynet errors; bugs surface
            entry = {"error": failure_reason(exc)}
        if entry:
            out[str(xi_id)] = entry
    return out


def cmd_counterexample(cfg: dict, args) -> int:
    section = cfg.get("counterexample", {})
    _check_keys(section, {"stiffness", "f", "m", "diagonal", "step"}, "counterexample")
    result = anisotropy_counterexample(
        stiffness=float(section.get("stiffness", 1.0)),
        f=float(section.get("f", 1.0)),
        m=_scale(section.get("m", 1), True, "counterexample"),
        diagonal=_diagonal(section.get("diagonal", "nw"), "counterexample"),
        step=float(section.get("step", 1e-3)),
    )
    payload = {
        "stiffness_diag": result.stiffness_diag,
        "stiffness_antidiag": result.stiffness_antidiag,
        "ratio": result.ratio,
    }
    out = _out_dir(cfg, args)
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
    parser.add_argument("--jobs", type=int, default=1, help="worker cap for sweeps")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, FullyConstrainedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleLatticeError as exc:
        print(f"infeasible lattice spec: {exc}", file=sys.stderr)
        return 3
    except (OptimizationError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
