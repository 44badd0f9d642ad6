"""Benchmark workloads: the inputs each one makes from its seed, and one pass.

A pass is one closed loop over the workload's cell problems: a single
client submits the next problem only after the previous one returned.
The cell workloads call `polynet.homogenize.solve_cell_problem` directly;
`cli-periodic-probes` calls `polynet.cli.main` in-process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polynet
import timing
from polynet import cli as pcli
from polynet import homogenize as phom

MODELS = {
    "spring": polynet.EnergyModel(pair=polynet.PairPotential.quadratic_spring(1.0)),
    "langevin": polynet.EnergyModel(pair=polynet.PairPotential.langevin_chain()),
    "langevin+vol": polynet.EnergyModel(
        pair=polynet.PairPotential.langevin_chain(),
        vol=polynet.VolumetricParams(K=1.0, eta=0.1),
    ),
}

XI_3D = np.array([[1.2, 0.05, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.9]])
XI_2D = np.array([[1.2, 0.05], [0.0, 1.0]])

# (h, model, realizations) rungs, in submission order.  The counts put the
# median cell latency in the middle of one block (the h = 0.0833 springs in
# 3D, the h = 0.05 Langevin cells in 2D), so cell_p50_s does not jump
# between rungs from seed to seed.
CELL_WORKLOADS = {
    "cell3d-jittered": {
        "dim": 3,
        "lattice": "jittered-grid",
        "xi": XI_3D,
        "ladder": [
            (0.125, "langevin+vol", 2),
            (0.0833, "spring", 3),
            (0.0833, "langevin+vol", 2),
        ],
    },
    "cell2d-matern": {
        "dim": 2,
        "lattice": "matern-hardcore",
        "xi": XI_2D,
        "ladder": [
            (0.1, "spring", 1),
            (0.1, "langevin", 1),
            (0.1, "langevin+vol", 1),
            (0.05, "spring", 3),
            (0.05, "langevin", 3),
            (0.05, "langevin+vol", 3),
            (0.025, "spring", 1),
            (0.025, "langevin", 1),
            (0.025, "langevin+vol", 1),
        ],
        # A fixed panel after the ladder in every pass.  Its lattice seeds do
        # not depend on --seed, so the share of its cells that fail (ok_frac)
        # is the same on every seed and a single extra failure shows.
        "panel": [
            (0.05, "spring", 3),
            (0.05, "langevin", 3),
            (0.05, "langevin+vol", 3),
        ],
    },
}
PANEL_ENTROPY = 7081425  # fixed entropy of the panel's lattice seeds
CLI_WORKLOAD = "cli-periodic-probes"

# About the raw seconds of one pass, yardstick samples included, on the
# machine the benchmark was written on (2 vCPUs).  A run makes as many whole
# passes as fit its --seconds at this rate: a number that depends on
# --seconds only, never on how fast a pass happened to go.
PASS_S = {"cell3d-jittered": 10.0, "cell2d-matern": 12.0, CLI_WORKLOAD: 5.5}


def pass_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[name]))

CLI_M_LIST = [4, 8, 12]
CLI_XI_COUNT = 3
CLI_ROTATIONS = 4
CLI_JOBS = 2
# per xi: one sweep row per m, plus the probe evaluations (base + rotations)
CLI_CELLS_PER_XI = len(CLI_M_LIST) + 2 * (1 + CLI_ROTATIONS)


@dataclass(frozen=True)
class Cell:
    id: str
    lattice_seed: int
    problem: polynet.CellProblem
    panel: bool = False


@dataclass
class CellOutcome:
    """What the program returned for one cell in one pass."""

    id: str
    latency_s: float
    value: float | None = None
    iterations: int | None = None
    n_free: int | None = None
    error: str | None = None  # "Type: message" when the solve raised
    typed: bool = True  # False when the exception is not a polynet type
    scale: float = 1.0  # reference seconds per raw second (timing.py)


def make_cells(name: str, seed: int) -> list[Cell]:
    """The workload's cell problems: the ladder, whose lattice seeds derive
    from `seed` only, then the fixed panel if the workload has one."""
    spec = CELL_WORKLOADS[name]
    cells = _rung_cells(spec, spec["ladder"], [seed, spec["dim"]], panel=False)
    if "panel" in spec:
        cells += _rung_cells(spec, spec["panel"], [PANEL_ENTROPY, spec["dim"]], panel=True)
    return cells


def _rung_cells(spec, rungs, entropy, panel: bool) -> list[Cell]:
    prefix = "panel-" if panel else ""
    count = sum(n for _, _, n in rungs)
    lattice_seeds = np.random.SeedSequence(entropy).generate_state(count, dtype=np.uint32)
    cells = []
    for h, model, n in rungs:
        for r in range(n):
            lseed = int(lattice_seeds[len(cells)])
            lattice = polynet.StochasticLatticeSpec(
                kind=spec["lattice"], intensity=1.0, r_min=0.3, R_cov=1.0, seed=lseed
            )
            source = polynet.StochasticCell(lattice=lattice, h=h, dim=spec["dim"])
            problem = polynet.CellProblem(xi=spec["xi"], source=source, model=MODELS[model])
            cells.append(Cell(f"{prefix}h{h}-{model}-r{r}", lseed, problem, panel))
    return cells


def run_cells(cells: list[Cell], speed: timing.Speed) -> timing.Pass:
    """One closed-loop pass; every raised exception is recorded, not re-raised."""
    outcomes = []
    for cell in cells:
        start = time.perf_counter()
        try:
            # looked up per call, so a traced pass goes through the wrapper
            sol = phom.solve_cell_problem(cell.problem)
        except Exception as exc:  # noqa: BLE001 - the outcome is the measurement
            outcome = CellOutcome(
                cell.id,
                time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
                typed=type(exc).__module__.startswith("polynet"),
            )
        else:
            outcome = CellOutcome(
                cell.id, time.perf_counter() - start, sol.value, sol.iterations, sol.n_free
            )
        outcome.scale = speed.scale(outcome.latency_s)
        outcomes.append(outcome)
    return timing.Pass(
        sum(o.latency_s for o in outcomes),
        sum(o.latency_s * o.scale for o in outcomes),
        outcomes,
    )


def cli_config(seed: int, m_list=CLI_M_LIST, rotations=CLI_ROTATIONS) -> dict:
    """Periodic 3D homogenize config with seeded xi list and probe rotations."""
    rng = np.random.default_rng([seed, 3])
    xi_list = [
        (np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, (3, 3))).tolist()
        for _ in range(CLI_XI_COUNT)
    ]
    return {
        "seed": seed,
        "model": {
            "pair": {"kind": "langevin-chain"},
            "volumetric": {"K": 1.0, "eta": 0.1},
        },
        "mesh": {"kind": "periodic", "dim": 3, "m": m_list[0]},
        "homogenize": {
            "xi_list": xi_list,
            "m_list": m_list,
            "probes": {
                "frame_rotations": rotations,
                "isotropy_rotations": rotations,
                "seed": seed,
            },
        },
    }


def write_cli_config(seed: int, work_dir: Path, name: str = "config.json", **kw) -> Path:
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / name
    path.write_text(json.dumps(cli_config(seed, **kw)))
    return path


@dataclass
class CliOutcome:
    exit_code: int | None
    rows: list[dict]  # homogenize.csv rows
    probes: dict  # summary.json "probes"
    error: str | None = None


def run_cli(config: Path, out_dir: Path, jobs: int = CLI_JOBS) -> CliOutcome:
    """One `polynet homogenize` run in-process, then its output files read."""
    argv = ["homogenize", "--config", str(config), "--out", str(out_dir),
            "--jobs", str(jobs)]
    for stale in ("homogenize.csv", "summary.json"):
        (out_dir / stale).unlink(missing_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # looked up per call, so a traced pass goes through the wrapper
            code = pcli.main(argv)
        with open(out_dir / "homogenize.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        probes = json.loads((out_dir / "summary.json").read_text())["probes"]
    except Exception as exc:  # noqa: BLE001 - the outcome is the measurement
        return CliOutcome(None, [], {}, f"{type(exc).__name__}: {exc}")
    return CliOutcome(code, rows, probes)
