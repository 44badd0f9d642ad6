import csv
import gc
import json
import math
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from helpers import count_cell_meshes, patch_cell_mesh
from polynet.assembly import EnergyModel
from polynet.chains import ChainParams, PairPotential
from polynet.cli import build_model, build_settings, main
from polynet.homogenize import (CellProblem, StochasticCell, anisotropy_counterexample,
                                solve_cell_problem)
from polynet.meshing import StochasticLatticeSpec, read_mesh
from polynet.optim import MinimizeSettings
from polynet.volumetric import VolumetricParams


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


PERIODIC_MESH = {"mesh": {"kind": "periodic", "dim": 3, "m": 2}}

STOCHASTIC_MESH = {
    "mesh": {
        "kind": "stochastic",
        "dim": 3,
        "h": 0.5,
        "lattice": {
            "kind": "jittered-grid",
            "intensity": 27.0,
            "r_min": 0.2,
            "R_cov": 0.36,
            "seed": 7,
        },
    }
}


def test_mesh_periodic(tmp_path, capsys):
    cfg = write_config(tmp_path, PERIODIC_MESH)
    out = tmp_path / "out"
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "N_el = 48" in captured
    mesh = read_mesh(out / "mesh.txt")
    assert mesh.num_elements == 48


def test_mesh_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, STOCHASTIC_MESH)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mesh", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["mesh", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "mesh.txt").read_bytes() == (out2 / "mesh.txt").read_bytes()
    assert (out1 / "admissibility.json").read_bytes() == (
        out2 / "admissibility.json"
    ).read_bytes()
    report = json.loads((out1 / "admissibility.json").read_text())
    assert report["separation_ok"] is True


def test_lattice_check(tmp_path):
    cfg = write_config(tmp_path, STOCHASTIC_MESH)
    out = tmp_path / "out"
    assert main(["lattice-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "admissibility.json").read_text())
    assert {"covering_ok", "separation_ok", "measured_R", "measured_r"} <= set(report)


def test_lattice_check_needs_stochastic(tmp_path):
    cfg = write_config(tmp_path, PERIODIC_MESH)
    assert main(["lattice-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_infeasible_lattice_exit_3(tmp_path):
    bad = {
        "mesh": {
            "kind": "stochastic",
            "dim": 3,
            "h": 0.5,
            "lattice": {
                "kind": "jittered-grid",
                "intensity": 27.0,
                "r_min": 0.9,
                "R_cov": 0.9,
                "seed": 1,
            },
        }
    }
    cfg = write_config(tmp_path, bad)
    assert main(["mesh", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_unknown_key_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"mesh": {"kind": "periodic", "m": 2, "dim": 3,
                                           "bogus": 1}})
    assert main(["mesh", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg2 = write_config(tmp_path, {"wrong_top": {}}, "c2.json")
    assert main(["mesh", "--config", cfg2, "--out", str(tmp_path / "o")]) == 2


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["mesh", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_section_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"model": {"pair": {"kind": "quadratic-spring"}}})
    assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


MINIMIZE_CALIBRATED = {
    "model": {
        "pair": {"kind": "langevin-chain", "k": 1.0, "beta": 1.0,
                 "c": 2.8040874567410107, "n": 1.0},
        "f": 1.0,
    },
    "mesh": {"kind": "periodic", "dim": 2, "m": 4, "diagonal": "nw"},
    "bc": {"kind": "affine-layer",
           "xi": [[1.0, 0.0], [0.0, 1.0]], "depth": "2h"},
}


def test_minimize_calibrated_rest_energy(tmp_path):
    cfg = write_config(tmp_path, MINIMIZE_CALIBRATED)
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert abs(result["energy"]) <= 1e-10
    assert result["converged"] is True


def test_minimize_honest_nonconvergence_exit_0(tmp_path):
    payload = {
        "model": {"pair": {"kind": "langevin-chain"}, "f": 1.0},
        "mesh": {"kind": "periodic", "dim": 3, "m": 2},
        "bc": {"kind": "dirichlet-face-free-traction",
               "xi": [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]],
               "faces": ["x-", "x+"]},
        "solver": {"max_iters": 1},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is False


def test_minimize_repeat_identical(tmp_path):
    payload = dict(MINIMIZE_CALIBRATED)
    payload["minimize"] = {"write_positions": True}
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["minimize", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["minimize", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    assert (out1 / "deformed_positions.txt").read_bytes() == (
        out2 / "deformed_positions.txt"
    ).read_bytes()


HOMOGENIZE_PERIODIC = {
    "seed": 0,
    "model": {"pair": {"kind": "quadratic-spring", "stiffness": 1.0}, "f": 1.0},
    "mesh": {"kind": "periodic", "dim": 2, "m": 4, "diagonal": "nw"},
    "homogenize": {
        "xi_list": [[[1.0, 0.0], [0.0, 1.0]]],
        "m_list": [2, 4],
    },
}


def test_homogenize_periodic_rows_and_gaps(tmp_path):
    cfg = write_config(tmp_path, HOMOGENIZE_PERIODIC)
    out = tmp_path / "out"
    assert main(["homogenize", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "homogenize.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2  # header + one row per scale
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["estimates"][0]["cauchy_gaps"]) == 1


def test_homogenize_stochastic_rows(tmp_path):
    payload = {
        "seed": 11,
        "model": {"pair": {"kind": "quadratic-spring", "stiffness": 1.0}, "f": 1.0},
        "mesh": {
            "kind": "stochastic",
            "dim": 2,
            "h": 0.25,
            "lattice": {"kind": "matern-hardcore", "intensity": 1.0,
                        "r_min": 0.3, "R_cov": 1.0, "seed": 0},
        },
        "homogenize": {
            "xi_list": [[[1.2, 0.0], [0.0, 1.0]]],
            "h_list": [0.3, 0.25],
            "n_realizations": 4,
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["homogenize", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "homogenize.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2 * 4
    summary = json.loads((out / "summary.json").read_text())
    per_h = summary["estimates"][0]["per_h"]
    assert all(entry["n"] == 4 for entry in per_h)
    assert all(entry["stderr"] > 0 for entry in per_h)


def test_homogenize_jobs_flag_equivalence(tmp_path, capsys):
    payload = dict(HOMOGENIZE_PERIODIC)
    payload["homogenize"] = {
        "xi_list": [[[1.0, 0.0], [0.0, 1.0]], [[1.1, 0.0], [0.0, 0.9]]],
        "m_list": [2, 4],
    }
    code, _, out = run_every_jobs(tmp_path, payload, capsys)
    assert code == 0
    assert sorted(path.name for path in out.iterdir()) == ["homogenize.csv", "summary.json"]


def test_homogenize_all_cells_fail_exit_4(tmp_path):
    payload = {
        "model": {
            "pair": {"kind": "quadratic-spring", "stiffness": 1.0},
            "volumetric": {"K": 1.0, "eta": 0.0},
        },
        "mesh": {"kind": "periodic", "dim": 2, "m": 4, "diagonal": "nw"},
        "homogenize": {
            "xi_list": [[[-1.0, 0.0], [0.0, 1.0]]],
            "m_list": [2, 4],
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("volumetric, xi, message", [
    ({"K": 1.0}, [[-1.0, 0.0], [0.0, 1.0]], "is inverted"),  # InvertedElementError
    (None, [[0.0, 0.0], [0.0, 0.0]], "coincident deformed vertices"),  # CoincidentVerticesError
], ids=["inverted", "coincident"])
def test_minimize_degenerate_xi_is_solver_failure(tmp_path, capsys, volumetric, xi, message):
    # each was a traceback (exit 1); homogenize gives the same xi exit 4
    model = {"pair": {"kind": "quadratic-spring"}}
    if volumetric is not None:
        model["volumetric"] = volumetric
    bc = {"kind": "dirichlet-face-free-traction", "xi": xi, "faces": ["x-", "x+"]}
    cfg = write_config(tmp_path, {**MINIMIZE_CALIBRATED, "model": model, "bc": bc})
    assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and message in err


def test_homogenize_probes_in_summary(tmp_path):
    payload = dict(HOMOGENIZE_PERIODIC)
    payload["homogenize"] = {
        "xi_list": [[[1.1, 0.0], [0.0, 0.9]]],
        "m_list": [2, 4],
        "probes": {"frame_rotations": 3, "isotropy_rotations": 3, "seed": 1},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["homogenize", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    probe = summary["probes"]["0"]
    assert probe["frame_invariance_deviation"] <= 1e-6
    assert probe["isotropy_deviation"] > 1e-3


def test_counterexample_cli(tmp_path, capsys):
    cfg = write_config(tmp_path, {"counterexample": {"stiffness": 1.0, "f": 1.0,
                                                     "diagonal": "nw"}})
    out = tmp_path / "out"
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "counterexample.json").read_text())
    assert payload["ratio"] > 1.0
    cfg_ne = write_config(tmp_path, {"counterexample": {"diagonal": "ne"}},
                          "ne.json")
    out_ne = tmp_path / "out_ne"
    assert main(["counterexample", "--config", cfg_ne, "--out", str(out_ne)]) == 0
    payload_ne = json.loads((out_ne / "counterexample.json").read_text())
    assert payload_ne["ratio"] < 1.0
    assert abs(payload["ratio"] * payload_ne["ratio"] - 1.0) <= 1e-9


def test_counterexample_repeat_identical(tmp_path):
    cfg = write_config(tmp_path, {"counterexample": {}})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["counterexample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["counterexample", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "counterexample.json").read_bytes() == (
        out2 / "counterexample.json"
    ).read_bytes()


def test_json_writer_tokens_and_layout(tmp_path):
    # non-finite floats are written as the tokens json.loads reads back;
    # numpy scalars and arrays as their Python values; keys sorted
    from polynet.cli import write_json

    path = tmp_path / "out.json"
    write_json(path, {"values": [float("nan"), np.float64("inf"), -np.inf, 0.1],
                      "n": np.int64(3), "flags": (True, False, None),
                      "empty": [], "nothing": {}, "xi": np.eye(2)})
    assert path.read_text() == (
        '{\n  "empty": [],\n  "flags": [\n    true,\n    false,\n    null\n  ],\n'
        '  "n": 3,\n  "nothing": {},\n  "values": [\n    NaN,\n    Infinity,\n'
        '    -Infinity,\n    0.10000000000000001\n  ],\n'
        '  "xi": [\n    [\n      1,\n      0\n    ],\n    [\n      0,\n      1\n    ]\n  ]\n}\n')
    loaded = json.loads(path.read_text())
    assert math.isnan(loaded["values"][0])
    assert loaded["values"][1:] == [math.inf, -math.inf, 0.1]
    with pytest.raises(TypeError, match="cannot serialize"):
        write_json(path, {"mask": np.bool_(True)})


def test_empty_sections_give_the_library_defaults(tmp_path):
    # the config parser passes only the keys a config gives
    chain = build_model({"model": {"pair": {"kind": "langevin-chain"}, "volumetric": {}}})
    assert chain == EnergyModel(pair=PairPotential.langevin_chain(ChainParams()),
                                vol=VolumetricParams())
    spring = build_model({"model": {"pair": {"kind": "quadratic-spring"}}})
    assert spring == EnergyModel(pair=PairPotential.quadratic_spring())
    assert build_settings({}) == build_settings({"solver": {}}) == (MinimizeSettings(), 1)
    cfg = write_config(tmp_path, {"counterexample": {}})
    assert main(["counterexample", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "counterexample.json").read_text())
    expected = anisotropy_counterexample()
    assert payload == {"stiffness_diag": expected.stiffness_diag,
                       "stiffness_antidiag": expected.stiffness_antidiag,
                       "ratio": expected.ratio}


def test_missing_config_file_exit_2(tmp_path):
    assert main(["mesh", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


FAILING_FIRST = {
    "seed": 0,
    "model": {
        "pair": {"kind": "quadratic-spring", "stiffness": 1.0},
        "volumetric": {"K": 1.0, "eta": 0.1},
    },
    "mesh": {"kind": "periodic", "dim": 2, "m": 4, "diagonal": "nw"},
    "homogenize": {
        # det 0.05 <= eta: every cell problem of the first xi is rejected
        "xi_list": [[[0.05, 0.0], [0.0, 1.0]], [[1.1, 0.0], [0.0, 0.9]]],
        "m_list": [2, 4],
        "probes": {"frame_rotations": 2, "isotropy_rotations": 2, "seed": 1},
    },
}
DET_REASON = "det(xi) must exceed the volumetric cut-off"


CALLER_MASK = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_no_pool_left():
    # the collector is thawed, every pool worker has exited and this
    # process runs on the CPUs it was given again
    assert gc.get_freeze_count() == 0
    assert not multiprocessing.active_children()
    if CALLER_MASK is not None:
        assert os.sched_getaffinity(0) == CALLER_MASK


THREE_CPUS = {0, 1, 2}


def run_every_jobs(tmp_path, payload, capsys):
    """Run homogenize at --jobs 1, 2 and 3, check that the exit codes,
    stdouts and output files agree byte for byte, and return those of
    --jobs 1: (exit code, stdout, output dir).  --jobs 3 runs with three
    allowed CPUs on any machine: os.sched_getaffinity answers THREE_CPUS and
    os.sched_setaffinity only records, so no process is pinned."""
    cfg = write_config(tmp_path, payload)
    runs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        pins = []
        with pytest.MonkeyPatch.context() as patch:
            if jobs == "3":
                patch.setattr(os, "sched_getaffinity", lambda pid: set(THREE_CPUS),
                              raising=False)
                patch.setattr(os, "sched_setaffinity",
                              lambda pid, mask: pins.append(set(mask)), raising=False)
            code = main(["homogenize", "--config", cfg, "--out", str(out), "--jobs", jobs])
        assert_no_pool_left()
        # with a pool, this process solved share 0 on CPU 0, then took its mask back
        assert pins in ([], [{0}, THREE_CPUS])
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        runs.append((code, capsys.readouterr().out, files))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    return runs[0][0], runs[0][1], tmp_path / "jobs1"


def recorded_deals(monkeypatch, describe):
    """Make cli._run_shares record [describe(share) for each share] per call,
    in the returned list."""
    from polynet import cli

    dealt = []
    run_shares = cli._run_shares

    def recording_run(solve, shares):
        dealt.append([describe(share) for share in shares])
        return run_shares(solve, shares)

    monkeypatch.setattr(cli, "_run_shares", recording_run)
    return dealt


def _pid_and_sum(share):
    return os.getpid(), sum(share)


SHARES = [[1, 2, 3], [4], [5, 6]]


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_run_shares_parent_solves_the_first_share(monkeypatch, processes):
    from polynet import cli

    submitted = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, share):
            submitted.append(share)
            return super().submit(fn, share)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    shares = SHARES[:processes]
    for _ in range(2):  # every run behaves alike
        submitted.clear()
        results = list(cli._run_shares(_pid_and_sum, shares))
        assert_no_pool_left()
        # in share order; the first share here, each other one a forked task
        assert [total for _, total in results] == [sum(share) for share in shares]
        pids = [pid for pid, _ in results]
        assert pids[0] == os.getpid() and os.getpid() not in pids[1:]
        assert submitted == shares[1:]


PLACEMENT = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least 2 allowed CPUs")


def _mask_and_sum(share):
    return os.sched_getaffinity(0), sum(share)


def _sum_unless(failing, share):
    if sum(share) == failing:
        raise IndexError(share)
    return sum(share)


@PLACEMENT
@pytest.mark.parametrize("processes", [2, 3])
def test_run_shares_runs_each_share_on_its_own_cpu(processes):
    from polynet import cli

    cpus = sorted(os.sched_getaffinity(0))
    shares = SHARES[:processes]
    for _ in range(2):  # every run behaves alike
        results = list(cli._run_shares(_mask_and_sum, shares))
        assert_no_pool_left()
        assert [total for _, total in results] == [sum(share) for share in shares]
        # share k on the k-th allowed CPU, the first share on this process's
        assert [mask for mask, _ in results] == [
            {cpus[k % len(cpus)]} for k in range(processes)]


@PLACEMENT
@pytest.mark.parametrize("failing", [0, 1])
def test_run_shares_restores_the_mask_when_a_share_raises(failing):
    from polynet import cli

    with pytest.raises(IndexError):
        cli._run_shares(partial(_sum_unless, sum(SHARES[failing])), SHARES)
    assert_no_pool_left()


def test_run_shares_without_affinity_leaves_every_mask(monkeypatch):
    # a platform without sched_setaffinity: no process is pinned
    from polynet import cli

    if CALLER_MASK is None:
        pytest.skip("needs os.sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    results = list(cli._run_shares(_mask_and_sum, SHARES))
    assert_no_pool_left()
    assert results == [(CALLER_MASK, sum(share)) for share in SHARES]


def test_homogenize_failing_xi_same_outputs_for_every_jobs(tmp_path, capsys):
    code, _, _ = run_every_jobs(tmp_path, FAILING_FIRST, capsys)
    assert code == 0


def test_homogenize_failing_xi_keeps_indices(tmp_path, capsys):
    _, _, out = run_every_jobs(tmp_path, FAILING_FIRST, capsys)
    summary = json.loads((out / "summary.json").read_text())
    assert [est["xi_id"] for est in summary["estimates"]] == [1]
    assert [entry["xi_id"] for entry in summary["failed"]] == [0]
    assert DET_REASON in summary["failed"][0]["error"]
    assert DET_REASON in summary["probes"]["0"]["error"]
    assert "isotropy_deviation" in summary["probes"]["1"]
    rows = (out / "homogenize.csv").read_text().strip().split("\n")
    assert {row.split(",")[0] for row in rows[1:]} == {"1"}


def test_homogenize_unconverged_cells_read_max_iters(tmp_path, capsys):
    # the h 0.25 cells are fully pinned (0 iterations); each h 0.15 cell
    # stops after its one iteration with a gradient above tolerance
    config = Path(__file__).resolve().parents[1] / "configs" / "homogenize_stochastic.json"
    payload = json.loads(config.read_text())
    payload["model"] = {"pair": {"kind": "langevin-chain"},
                        "volumetric": {"K": 1.0, "eta": 0.1}}
    payload["solver"] = {"max_iters": 1}
    code, stdout, out = run_every_jobs(tmp_path, payload, capsys)
    assert code == 0
    # stdout counts the converged and the unconverged cells apart
    assert stdout == "cells ok: 4\ncells max_iters: 4\n"
    with open(out / "homogenize.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    columns = list(rows[0])
    assert columns[columns.index("iterations") + 1] == "evaluations"
    for row in rows:
        pinned = float(row["h"]) == 0.25
        assert (row["status"], row["error"]) == ("ok" if pinned else "max_iters", "")
        assert np.isfinite(float(row["value"]))
        # the start and at least one trial step, or no call for a pinned cell
        evaluations = int(row["evaluations"])
        assert evaluations == 0 if pinned else evaluations >= 2
    # an unconverged cell keeps its value in the mean
    per_h = json.loads((out / "summary.json").read_text())["estimates"][0]["per_h"]
    assert [entry["n"] for entry in per_h] == [4, 4]
    assert [entry["n_max_iters"] for entry in per_h] == [0, 4]
    fine = [float(row["value"]) for row in rows if row["status"] == "max_iters"]
    assert per_h[1]["mean"] == pytest.approx(np.mean(fine), rel=1e-15)


def test_homogenize_failed_cell_reason_in_csv(tmp_path, monkeypatch):
    from polynet import homogenize
    from polynet.optim import OptimizationError

    solve = homogenize.solve_cell_problem

    def fail_first_realization(problem, mesh=None):
        if problem.seed == homogenize._realization_seed(11, 0, 0):
            raise OptimizationError("line search failed")
        return solve(problem, mesh)

    monkeypatch.setattr(homogenize, "solve_cell_problem", fail_first_realization)
    payload = {
        "seed": 11,
        "model": {"pair": {"kind": "quadratic-spring", "stiffness": 1.0}},
        "mesh": {
            "kind": "stochastic",
            "dim": 2,
            "h": 0.3,
            "lattice": {"kind": "matern-hardcore", "intensity": 1.0,
                        "r_min": 0.3, "R_cov": 1.0, "seed": 0},
        },
        "homogenize": {
            "xi_list": [[[1.2, 0.0], [0.0, 1.0]]],
            "h_list": [0.3, 0.25],
            "n_realizations": 2,
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["homogenize", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "homogenize.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [row for row in rows if row["status"] == "failed"]
    assert len(rows) == 4 and len(failed) == 1
    assert failed[0]["error"] == "OptimizationError: line search failed"
    assert all(row["error"] == "" for row in rows if row["status"] == "ok")


def _raise_index_error(*args, **kwargs):
    raise IndexError("index 7 is out of bounds for axis 0 with size 7")


TWO_XI_PERIODIC = {
    **HOMOGENIZE_PERIODIC,
    "homogenize": {
        **HOMOGENIZE_PERIODIC["homogenize"],
        "xi_list": [[[1.0, 0.0], [0.0, 1.0]], [[1.1, 0.0], [0.0, 0.9]]],
    },
}


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_homogenize_cell_bug_propagates(tmp_path, monkeypatch, jobs):
    # only polynet's own errors (ValueError, RuntimeError) become failed
    # cells; a bug in a cell solve ends the command with its traceback, on
    # a mesh (two restarts) or in closed form (one).  The pool's workers are
    # forked after the patch, so they raise it too.
    from polynet import homogenize

    for name, restarts in (("solve_cell_problem", 2), ("periodic_density", 1)):
        with monkeypatch.context() as patch:
            patch.setattr(homogenize, name, _raise_index_error)
            cfg = write_config(tmp_path, {**TWO_XI_PERIODIC, "solver": {"restarts": restarts}})
            with pytest.raises(IndexError):
                main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o"),
                      "--jobs", jobs])
        assert_no_pool_left()


def test_homogenize_probe_bug_propagates(tmp_path, monkeypatch):
    from polynet import homogenize

    monkeypatch.setattr(homogenize, "isotropy_probe", _raise_index_error)
    payload = {**TWO_XI_PERIODIC, "homogenize": {
        **TWO_XI_PERIODIC["homogenize"], "probes": {"isotropy_rotations": 2}}}
    cfg = write_config(tmp_path, payload)
    with pytest.raises(IndexError):
        main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o")])


BAD_SWEEPS = {
    "empty scale list": {"m_list": []},
    "single scale": {"m_list": [4]},
    "no realizations": {"h_list": [0.3, 0.25], "n_realizations": 0},
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_homogenize_bad_sweep_is_config_error(tmp_path, capsys, case, jobs):
    payload = dict(HOMOGENIZE_PERIODIC)
    if "h_list" in BAD_SWEEPS[case]:
        payload["mesh"] = {
            "kind": "stochastic",
            "dim": 2,
            "h": 0.3,
            "lattice": {"kind": "matern-hardcore", "intensity": 1.0,
                        "r_min": 0.3, "R_cov": 1.0, "seed": 0},
        }
    payload["homogenize"] = {
        "xi_list": [[[1.0, 0.0], [0.0, 1.0]], [[1.1, 0.0], [0.0, 0.9]]],
        **BAD_SWEEPS[case],
    }
    cfg = write_config(tmp_path, payload)
    code = main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", jobs])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: homogenize:")


STOCHASTIC_2D = {
    "kind": "stochastic",
    "dim": 2,
    "h": 0.3,
    "lattice": {"kind": "matern-hardcore", "intensity": 1.0,
                "r_min": 0.3, "R_cov": 1.0, "seed": 0},
}
# the xi of HOMOGENIZE_PERIODIC without its m_list
STOCHASTIC_HOMOGENIZE = {"xi_list": HOMOGENIZE_PERIODIC["homogenize"]["xi_list"]}
# (config edit, context of the message): each was a traceback (exit 1) or a
# sweep failure (exit 4) before it became a config error
BAD_VALUES = {
    "mesh diagonal": ({"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "diagonal": "sw"}},
                      "mesh: diagonal"),
    "mesh m": ({"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "m": 0}}, "mesh: m"),
    # settings that meant nothing: both ran as if absent (exit 0)
    "3d mesh diagonal": ({"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "dim": 3}},
                         "mesh: diagonal is for 2D meshes only"),
    "periodic n_realizations": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                                "n_realizations": 7}},
                                "homogenize: n_realizations is for stochastic meshes only"),
    "m_list entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                     "m_list": [2, 0]}}, "homogenize: m"),
    "h_list entry": ({"mesh": STOCHASTIC_2D,
                      "homogenize": {**STOCHASTIC_HOMOGENIZE,
                                     "h_list": [0.2, -0.1]}}, "homogenize: h"),
    "non-integral mesh m": ({"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "m": 2.7}},
                            "mesh: m"),
    "non-integral m_list entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                                  "m_list": [2, 4.5]}}, "homogenize: m"),
    "non-numeric m_list entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                                 "m_list": [2, "x"]}}, "homogenize: m"),
    "non-numeric h_list entry": ({"mesh": STOCHASTIC_2D,
                                  "homogenize": {**STOCHASTIC_HOMOGENIZE,
                                                 "h_list": [0.3, "x"]}}, "homogenize: h"),
    "non-numeric n_realizations": ({"mesh": STOCHASTIC_2D,
                                    "homogenize": {**STOCHASTIC_HOMOGENIZE,
                                                   "h_list": [0.3, 0.25],
                                                   "n_realizations": "x"}},
                                   "homogenize: n_realizations"),
    "non-numeric restarts": ({"solver": {"restarts": "x"}}, "solver: restarts"),
    "non-numeric seed": ({"seed": "x"}, "seed"),
    # JSON's NaN and Infinity parse as floats; the NaN xi used to exit 0
    "NaN xi entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                     "xi_list": [[[float("nan"), 0.0], [0.0, 1.0]]]}},
                     "homogenize: every xi"),
    "infinite xi entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                          "xi_list": [[[1.0, 0.0], [0.0, float("inf")]]]}},
                          "homogenize: every xi"),
    "infinite stiffness": ({"model": {"pair": {"kind": "quadratic-spring",
                                               "stiffness": float("inf")}}},
                           "model.pair: stiffness"),
    "NaN grad_tol": ({"solver": {"grad_tol": float("nan")}}, "solver: grad_tol"),
    # strings and booleans are not numbers: each ran as the number it spelled
    # (exit 0)
    "string stiffness": ({"model": {"pair": {"kind": "quadratic-spring", "stiffness": "2"}}},
                         "model.pair: stiffness"),
    "boolean f": ({"model": {**HOMOGENIZE_PERIODIC["model"], "f": True}}, "model: f"),
    "string xi entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                        "xi_list": [[["1.1", 0.0], [0.0, 1.0]]]}},
                        "homogenize: every xi"),
    "boolean xi entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                         "xi_list": [[[True, 0.0], [0.0, 1.0]]]}},
                         "homogenize: every xi"),
    # an integer beyond the float range raised OverflowError (exit 1)
    "huge stiffness": ({"model": {"pair": {"kind": "quadratic-spring", "stiffness": 10**400}}},
                       "model.pair: stiffness"),
    # the L-BFGS memory and line-search constants are fixed
    "solver memory": ({"solver": {"memory": 10}}, "solver: unknown keys"),
    "solver c1": ({"solver": {"c1": 1e-4}}, "solver: unknown keys"),
    "solver c2": ({"solver": {"c2": 0.9}}, "solver: unknown keys"),
    # lists given as numbers raised TypeError; an empty xi_list exited 4
    "xi_list number": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"], "xi_list": 1}},
                       "homogenize: xi_list"),
    "empty xi_list": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"], "xi_list": []}},
                      "homogenize: xi_list"),
    "m_list number": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"], "m_list": 4}},
                      "homogenize: m_list"),
    "h_list number": ({"mesh": STOCHASTIC_2D,
                       "homogenize": {**STOCHASTIC_HOMOGENIZE, "h_list": 0.3}},
                      "homogenize: h_list"),
    # the other mesh kind's scale list: both ran as if absent (exit 0)
    "periodic h_list": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                        "h_list": [0.5, 0.25]}},
                        "homogenize: h_list is for stochastic meshes only"),
    "stochastic m_list": ({"mesh": STOCHASTIC_2D,
                           "homogenize": {**STOCHASTIC_HOMOGENIZE, "h_list": [0.3, 0.25],
                                          "m_list": [2, 4]}},
                          "homogenize: m_list is for periodic meshes only"),
    # the model's parameter checks: each raised ValueError out of main (exit 1)
    "chain k": ({"model": {"pair": {"kind": "langevin-chain", "k": -1}}},
                "model: ChainParams requires"),
    "chain beta": ({"model": {"pair": {"kind": "langevin-chain", "beta": 0}}},
                   "model: ChainParams requires"),
    "chain n": ({"model": {"pair": {"kind": "langevin-chain", "n": 0}}},
                "model: ChainParams requires"),
    "zero stiffness": ({"model": {"pair": {"kind": "quadratic-spring", "stiffness": 0}}},
                       "model: spring stiffness must be positive"),
    "volumetric K": ({"model": {**HOMOGENIZE_PERIODIC["model"], "volumetric": {"K": -1}}},
                     "model: bulk modulus K must be positive"),
    "volumetric eta": ({"model": {**HOMOGENIZE_PERIODIC["model"],
                                  "volumetric": {"eta": 1.5}}},
                       "model: cut-off eta must lie in [0, 1)"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_homogenize_bad_value_is_config_error(tmp_path, capsys, case, jobs):
    edit, ctx = BAD_VALUES[case]
    cfg = write_config(tmp_path, {**HOMOGENIZE_PERIODIC, **edit})
    code = main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", jobs])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {ctx}")


# a scale too coarse for the lattice: too few points to triangulate or to
# check (each was a traceback, exit 1)
COARSE_3D = {**STOCHASTIC_MESH["mesh"], "h": 5.0}
COARSE_2D = {**STOCHASTIC_2D, "h": 5.0}
COARSE_MINIMIZE = {**MINIMIZE_CALIBRATED, "mesh": COARSE_2D}
TRIANGULATE = "need at least dim+1 points to triangulate"
COUNTEREXAMPLE_POSITIVE = "counterexample: spring stiffness and chains-per-volume factor f"


@pytest.mark.parametrize("command, payload, ctx", [
    ("mesh", {"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "diagonal": "sw"}},
     "mesh: diagonal"),
    ("mesh", {"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "m": 0}}, "mesh: m"),
    ("counterexample", {"counterexample": {"diagonal": "sw"}},
     "counterexample: diagonal"),
    ("mesh", {"mesh": COARSE_3D}, TRIANGULATE),
    ("mesh", {"mesh": COARSE_2D}, TRIANGULATE),
    ("lattice-check", {"mesh": COARSE_2D}, "admissibility check needs at least 2 points"),
    ("minimize", COARSE_MINIMIZE, TRIANGULATE),
    # a zero ended in ZeroDivisionError; a negative value printed negative
    # stiffnesses with exit 0
    ("counterexample", {"counterexample": {"stiffness": 0}}, COUNTEREXAMPLE_POSITIVE),
    ("counterexample", {"counterexample": {"stiffness": -1}}, COUNTEREXAMPLE_POSITIVE),
    ("counterexample", {"counterexample": {"f": 0}}, COUNTEREXAMPLE_POSITIVE),
    ("counterexample", {"counterexample": {"f": -2}}, COUNTEREXAMPLE_POSITIVE),
    # settings that meant nothing are unknown keys
    ("counterexample", {"counterexample": {"step": 1e-3}}, "counterexample: unknown keys"),
    ("counterexample", {"counterexample": {"m": 1}}, "counterexample: unknown keys"),
    ("mesh", {"mesh": {**PERIODIC_MESH["mesh"], "diagonal": "ne"}},
     "mesh: diagonal is for 2D meshes only"),
    ("minimize", {**MINIMIZE_CALIBRATED,
                  "model": {**MINIMIZE_CALIBRATED["model"], "weight_mode": "uniform-h"}},
     "model: unknown keys"),
    ("minimize", {**MINIMIZE_CALIBRATED, "model": {
        **MINIMIZE_CALIBRATED["model"],
        "pair": {**MINIMIZE_CALIBRATED["model"]["pair"], "l": 1.0}}},
     "model.pair: unknown keys"),
    # strings and booleans are not numbers: the first two printed the
    # stiffness-2, f = 1 result (exit 0)
    ("counterexample", {"counterexample": {"stiffness": "2"}}, "counterexample: stiffness"),
    ("counterexample", {"counterexample": {"f": True}}, "counterexample: f"),
    ("minimize", {**MINIMIZE_CALIBRATED,
                  "bc": {**MINIMIZE_CALIBRATED["bc"], "xi": [["1.1", 0.0], [0.0, 1.0]]}},
     "bc: xi"),
    ("minimize", {**MINIMIZE_CALIBRATED,
                  "bc": {**MINIMIZE_CALIBRATED["bc"], "xi": [[1.0, False], [0.0, 1.0]]}},
     "bc: xi"),
    ("minimize", {**MINIMIZE_CALIBRATED,
                  "bc": {**MINIMIZE_CALIBRATED["bc"], "xi": [[1.0, 0.0, 0.0], [0.0, 1.0]]}},
     "bc: xi"),
], ids=["mesh diagonal", "mesh m", "counterexample diagonal", "mesh coarse 3d",
        "mesh coarse 2d", "lattice-check coarse 2d", "minimize coarse 2d",
        "counterexample stiffness 0", "counterexample stiffness -1", "counterexample f 0",
        "counterexample f -2", "counterexample step", "counterexample m",
        "mesh 3d diagonal", "model weight_mode", "chain l", "counterexample string stiffness",
        "counterexample boolean f", "bc string xi entry", "bc boolean xi entry",
        "bc ragged xi"])
def test_bad_value_is_config_error(tmp_path, capsys, command, payload, ctx):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {ctx}")


# (command, config, the whole message): the input checks no other test reaches
UNREACHED_CHECKS = {
    "unknown pair kind": ("minimize", {**MINIMIZE_CALIBRATED, "model": {"pair": {"kind": "rod"}}},
                          "model.pair: unknown kind 'rod'"),
    "unknown lattice kind": ("mesh", {"mesh": {**STOCHASTIC_2D, "lattice": {
        **STOCHASTIC_2D["lattice"], "kind": "poisson"}}},
        "mesh.lattice: unknown lattice kind 'poisson'"),
    "unknown mesh kind": ("mesh", {"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "kind": "hexagonal"}},
                          "mesh: unknown kind 'hexagonal'"),
    "dim 4": ("mesh", {"mesh": {"kind": "periodic", "dim": 4, "m": 2}},
              "mesh: dim must be 2 or 3"),
    "2hR on a periodic mesh": ("minimize", {**MINIMIZE_CALIBRATED, "bc": {
        **MINIMIZE_CALIBRATED["bc"], "depth": "2hR"}},
        "bc: depth rule '2hR' needs a stochastic mesh"),
    "unknown bc kind": ("minimize", {**MINIMIZE_CALIBRATED, "bc": {
        **MINIMIZE_CALIBRATED["bc"], "kind": "neumann"}}, "bc: unknown kind 'neumann'"),
    "negative grad_tol": ("minimize", {**MINIMIZE_CALIBRATED, "solver": {"grad_tol": -1e-8}},
                          "solver: grad_tol must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(UNREACHED_CHECKS))
def test_input_check_is_config_error(tmp_path, capsys, case):
    command, payload, message = UNREACHED_CHECKS[case]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_minimize_2hR_depth_on_stochastic_mesh(tmp_path):
    # the 2hR rule pins the stochastic cell's own layer, so the CLI's energy
    # is the library's cell solve bit for bit
    xi = [[1.1, 0.0], [0.0, 0.9]]
    cfg = write_config(tmp_path, {
        "model": {"pair": {"kind": "quadratic-spring", "stiffness": 1.0}, "f": 1.0},
        "mesh": {**STOCHASTIC_2D, "h": 0.1},
        "bc": {"kind": "affine-layer", "xi": xi, "depth": "2hR"},
    })
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    source = StochasticCell(StochasticLatticeSpec(**STOCHASTIC_2D["lattice"]), h=0.1, dim=2)
    model = EnergyModel(pair=PairPotential.quadratic_spring(1.0))
    expected = solve_cell_problem(CellProblem(np.array(xi), source, model))
    assert expected.n_free > 0
    assert json.loads((out / "result.json").read_text())["energy"] == expected.value


FACE_BC = {"kind": "dirichlet-face-free-traction", "xi": [[1.2, 0.0], [0.0, 1.0]]}
# each raised ValueError or TypeError out of the solve (exit 1)
BAD_BC = {
    "faces string": {**FACE_BC, "faces": "x-"},
    "faces number": {**FACE_BC, "faces": 5},
    "empty faces": {**FACE_BC, "faces": []},
    "unknown face": {**FACE_BC, "faces": ["q+"]},
    "face beyond dim": {**FACE_BC, "faces": ["x-", "z+"]},
    "negative depth": {"kind": "affine-layer", "xi": [[1.2, 0.0], [0.0, 1.0]], "depth": -0.1},
}


@pytest.mark.parametrize("case", sorted(BAD_BC))
def test_minimize_bad_bc_is_config_error(tmp_path, capsys, case):
    cfg = write_config(tmp_path, {**MINIMIZE_CALIBRATED, "bc": BAD_BC[case]})
    out = tmp_path / "o"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bc:")
    assert not out.exists()


def test_minimize_write_positions_must_be_boolean(tmp_path, capsys):
    cfg = write_config(tmp_path, {**MINIMIZE_CALIBRATED, "minimize": {"write_positions": "no"}})
    out = tmp_path / "o"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: minimize: write_positions")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, HOMOGENIZE_PERIODIC)
    out = tmp_path / "o"
    assert main(["homogenize", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("config error: --jobs")
    assert not out.exists()


# one valid config per command; an --out check that came after the work
# would build the mesh or solve the cells
EVERY_COMMAND = {
    "mesh": PERIODIC_MESH,
    "lattice-check": STOCHASTIC_MESH,
    "minimize": MINIMIZE_CALIBRATED,
    "homogenize": HOMOGENIZE_PERIODIC,
    "counterexample": {},
}


@pytest.mark.parametrize("below", [False, True], ids=["file", "below file"])
@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_out_not_a_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                   command, below):
    # both ended in a FileExistsError or NotADirectoryError traceback (exit
    # 1), homogenize's only after its whole sweep
    from polynet import cli, homogenize

    patch_cell_mesh(monkeypatch, lambda build: _raise_index_error)
    monkeypatch.setattr(cli, "stochastic_lattice", _raise_index_error)
    monkeypatch.setattr(homogenize, "solve_cell_problem", _raise_index_error)
    cfg = write_config(tmp_path, EVERY_COMMAND[command])
    taken = tmp_path / "taken"
    taken.write_text("x")
    out = taken / "o" if below else taken
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out {str(out)!r}")
    assert sorted(tmp_path.iterdir()) == [Path(cfg), taken]
    assert taken.read_text() == "x"


@pytest.mark.parametrize("out, message", [
    ("taken/o", "config error: out 'taken/o'"),
    (5, "config error: out must be a path"),
])
def test_config_out_not_a_directory_is_config_error(tmp_path, capsys, monkeypatch,
                                                    out, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("x")
    cfg = write_config(tmp_path, {"counterexample": {}, "out": out})
    assert main(["counterexample", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


BAD_PROBES = {
    "unknown key": {"frame_rotation": 2},
    "non-integer seed": {"frame_rotations": 2, "seed": "x"},
    "negative rotations": {"frame_rotations": -3},
    "fractional rotations": {"isotropy_rotations": 2.5},
    # only an absent or null section means no probes
    "zero": 0,
    "false": False,
    "empty list": [],
    "empty string": "",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(BAD_PROBES))
def test_homogenize_bad_probes_fail_before_any_cell(tmp_path, capsys, monkeypatch,
                                                    case, jobs):
    # a cell solve would end the command with an IndexError
    from polynet import homogenize

    monkeypatch.setattr(homogenize, "solve_cell_problem", _raise_index_error)
    payload = {**TWO_XI_PERIODIC, "homogenize": {
        **TWO_XI_PERIODIC["homogenize"], "probes": BAD_PROBES[case]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["homogenize", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("config error: homogenize.probes")
    assert not out.exists()


# neither xi commutes with a rotation, so each has 5 distinct probe cells:
# the base, shared by both probes, and 2 rotated xi per probe
PERIODIC_PROBES = {
    **HOMOGENIZE_PERIODIC,
    "homogenize": {
        "xi_list": [[[1.1, 0.0], [0.0, 0.9]], [[1.0, 0.1], [0.0, 1.0]]],
        "m_list": [2, 4],
        "probes": {"frame_rotations": 2, "isotropy_rotations": 2, "seed": 1},
    },
}
# R @ I and I @ R are the same bits, so the isotropy cells are the frame
# cells; two restarts solve them on meshes
IDENTITY_PROBES = {**PERIODIC_PROBES, "solver": {"restarts": 2}, "homogenize": {
    **PERIODIC_PROBES["homogenize"], "xi_list": [[[1.0, 0.0], [0.0, 1.0]]]}}
STOCHASTIC_TWO_XI = {
    "seed": 11,
    "model": {"pair": {"kind": "quadratic-spring", "stiffness": 1.0}},
    "mesh": STOCHASTIC_2D,
    "homogenize": {
        "xi_list": [[[1.2, 0.0], [0.0, 1.0]], [[1.0, 0.1], [0.0, 0.9]]],
        "h_list": [0.3, 0.25],
        "n_realizations": 2,
    },
}

STOCHASTIC_WITH_PROBES = {**STOCHASTIC_TWO_XI, "homogenize": {
    **STOCHASTIC_TWO_XI["homogenize"],
    "probes": {"frame_rotations": 2, "isotropy_rotations": 2, "seed": 3}}}
STOCHASTIC_PROBES = {**STOCHASTIC_TWO_XI, "solver": {"restarts": 2}, "homogenize": {
    **STOCHASTIC_TWO_XI["homogenize"],
    "probes": {"frame_rotations": 2, "isotropy_rotations": 1, "seed": 4}}}
# one realization: the finest source holds 2 x (1 + 2 + 2) of the 12 cells,
# so every --jobs above 1 cuts it between processes
STOCHASTIC_SPLIT = {**STOCHASTIC_WITH_PROBES, "homogenize": {
    **STOCHASTIC_WITH_PROBES["homogenize"], "n_realizations": 1}}


# the probes solve on the sweep's finest cells, so each xi's probe base cell
# is its finest sweep cell, solved once, and the probes build no mesh of
# their own; with one restart periodic cells build and solve no mesh at all
@pytest.mark.parametrize("payload, builds, solves", [
    (PERIODIC_PROBES, 0, 0),
    # m 2 and m 4, probes on the m 4 mesh
    ({**PERIODIC_PROBES, "solver": {"restarts": 2}}, 2, 2 * (2 + 4)),
    (IDENTITY_PROBES, 2, 2 + 2),
    (STOCHASTIC_TWO_XI, 2 * 2, 2 * 2 * 2),  # scales x realizations
    # per xi: 2 scales x 2 realizations, then 4 rotated xi x 2 realizations
    (STOCHASTIC_WITH_PROBES, 2 * 2, 2 * (2 * 2 + 4 * 2)),
], ids=["periodic with probes", "periodic with probes and 2 restarts",
        "identity xi with probes", "stochastic", "stochastic with probes"])
def test_homogenize_builds_each_source_once(tmp_path, monkeypatch, payload, builds,
                                            solves):
    from polynet import homogenize

    solved = []
    solve = homogenize.solve_cell_problem

    def counting_solve(problem, mesh=None):
        solved.append(problem)
        return solve(problem, mesh)

    built = count_cell_meshes(monkeypatch)
    monkeypatch.setattr(homogenize, "solve_cell_problem", counting_solve)
    cfg = write_config(tmp_path, payload)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(built) == len(set(built)) == builds
    assert len(solved) == solves


def _logging(function, log, tag):
    """function, appending a line `tag` to the file log at every call; forked
    workers inherit it, so the file counts the calls of every process."""
    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{tag(*args)}\n")
        return function(*args, **kwargs)

    return logged


# one xi on m 2, 4 and 8 with 1 frame and 1 isotropy probe: m 8 holds 3 of
# the 5 distinct cells, so at --jobs 2 and 3 it is cut into chunks of 1 and 2
# cells; at --jobs 2 both chunks are dealt to the first share.  Two restarts
# solve them on meshes.
PERIODIC_ONE_XI = {**HOMOGENIZE_PERIODIC, "solver": {"restarts": 2}, "homogenize": {
    "xi_list": [[[1.1, 0.0], [0.0, 0.9]]],
    "m_list": [2, 4, 8],
    "probes": {"frame_rotations": 1, "isotropy_rotations": 1, "seed": 1}}}


# builds over all processes: one per source, unless a source holds more than
# 1/jobs of the distinct cells and its chunks land in different processes.
# Stochastic: at --jobs 3 each finest source holds 10 of the 24 cells.
# --jobs counts at most the allowed CPUs, so `builds` is given for 1, 2 and
# 3 processes and the run's count picks one.
@pytest.mark.parametrize("payload, jobs, sources, builds, solves", [
    (STOCHASTIC_WITH_PROBES, "1", 2 * 2, (4, 4, 6), 24),  # scales x realizations
    (STOCHASTIC_WITH_PROBES, "2", 2 * 2, (4, 4, 6), 24),
    (STOCHASTIC_WITH_PROBES, "3", 2 * 2, (4, 4, 6), 24),
    (PERIODIC_ONE_XI, "1", 3, (3, 3, 4), 5),
    (PERIODIC_ONE_XI, "2", 3, (3, 3, 4), 5),
    (PERIODIC_ONE_XI, "3", 3, (3, 3, 4), 5),
], ids=["1-4", "2-4", "3-6", "periodic-1-3", "periodic-2-3", "periodic-3-4"])
def test_homogenize_builds_once_per_source_across_processes(tmp_path, monkeypatch, payload,
                                                            jobs, sources, builds, solves):
    from polynet import homogenize

    processes = int(jobs)
    if CALLER_MASK is not None:
        processes = min(processes, len(CALLER_MASK))

    log = tmp_path / "calls.log"
    patch_cell_mesh(monkeypatch, lambda build: _logging(
        build, log, lambda source: f"build {os.getpid()} {source}"))
    monkeypatch.setattr(homogenize, "solve_cell_problem", _logging(
        homogenize.solve_cell_problem, log, lambda problem, mesh=None: "solve"))
    cfg = write_config(tmp_path, payload)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", jobs]) == 0
    assert_no_pool_left()
    calls = Counter(log.read_text().splitlines())
    built = {line: n for line, n in calls.items() if line.startswith("build")}
    assert set(built.values()) == {1}  # no process builds a source twice
    assert len({line.split(" ", 2)[2] for line in built}) == sources
    assert len(built) == builds[processes - 1]
    assert calls["solve"] == solves  # every distinct cell once


@pytest.mark.parametrize("payload", [STOCHASTIC_PROBES,
                                     {**PERIODIC_PROBES, "solver": {"restarts": 2}}],
                         ids=["stochastic", "periodic"])
def test_homogenize_probe_base_is_the_finest_sweep_value(tmp_path, monkeypatch, payload):
    from polynet import homogenize

    bases = []
    probe = homogenize.frame_invariance_probe

    def recording_probe(estimator, xi, rotations):
        bases.append(estimator(xi))
        return probe(estimator, xi, rotations)

    monkeypatch.setattr(homogenize, "frame_invariance_probe", recording_probe)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["homogenize", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    estimates = json.loads((out / "summary.json").read_text())["estimates"]
    # 17 significant digits round-trip every double
    assert bases == [est["per_h"][-1]["value"] for est in estimates]


def test_homogenize_stochastic_probes_same_outputs_for_every_jobs(tmp_path, capsys):
    code, _, out = run_every_jobs(tmp_path, STOCHASTIC_WITH_PROBES, capsys)
    assert code == 0
    probes = json.loads((out / "summary.json").read_text())["probes"]
    assert sorted(probes) == ["0", "1"]
    assert all(set(entry) == {"frame_invariance_deviation", "isotropy_deviation"}
               for entry in probes.values())


def test_homogenize_split_stochastic_source_same_outputs_for_every_jobs(
        tmp_path, monkeypatch, capsys):
    dealt = recorded_deals(monkeypatch, lambda share: [group[0][1].h for group in share])
    code, stdout, _ = run_every_jobs(tmp_path, STOCHASTIC_SPLIT, capsys)
    assert code == 0
    assert stdout == "cells ok: 4\ncells max_iters: 0\n"
    # each share's sources by h at 1, 2 and 3 processes (--jobs is capped
    # at the allowed CPUs, three at --jobs 3): the h 0.25 source is in every share
    deals = {1: [[0.25, 0.3]], 2: [[0.25, 0.3], [0.25]], 3: [[0.25], [0.25, 0.3], [0.25]]}
    allowed = len(CALLER_MASK) if CALLER_MASK is not None else 2
    assert dealt == [deals[1], deals[min(2, allowed)], deals[3]]


def test_homogenize_stochastic_config_deals_three_shares(tmp_path, monkeypatch, capsys):
    # the shipped 2D stochastic config: 8 sources (2 scales x 4 realizations),
    # dealt into three shares at --jobs 3, with the outputs of --jobs 1
    dealt = recorded_deals(monkeypatch, len)
    config = Path(__file__).resolve().parents[1] / "configs" / "homogenize_stochastic.json"
    code, stdout, _ = run_every_jobs(tmp_path, json.loads(config.read_text()), capsys)
    assert code == 0
    assert stdout == "cells ok: 8\ncells max_iters: 0\n"
    assert dealt[0] == [8] and len(dealt[2]) == 3 and sum(dealt[2]) == 8


@pytest.mark.parametrize("payload", [PERIODIC_PROBES, STOCHASTIC_PROBES],
                         ids=["periodic", "stochastic"])
def test_homogenize_probes_equal_library_probes(tmp_path, capsys, payload):
    # every probe deviation is the library's on the sweep's finest cells: for
    # a periodic source with one restart, cell_estimator's at the finest m
    from polynet import EnergyModel, PairPotential, PeriodicCell, StochasticCell
    from polynet.homogenize import (cell_estimator, frame_invariance_probe, isotropy_probe,
                                    random_rotations, runs_estimator, solve_cells,
                                    sweep_runs)
    from polynet.meshing import StochasticLatticeSpec

    mesh, section = payload["mesh"], payload["homogenize"]
    spring = EnergyModel(pair=PairPotential.quadratic_spring(1.0))
    restarts = payload.get("solver", {}).get("restarts", 1)
    if mesh["kind"] == "periodic":
        assert restarts == 1
        estimator = cell_estimator(PeriodicCell(m=section["m_list"][-1], dim=mesh["dim"],
                                                diagonal=mesh["diagonal"]), spring)
    else:
        source = StochasticCell(StochasticLatticeSpec(**mesh["lattice"]), h=mesh["h"],
                                dim=mesh["dim"])
        runs = sweep_runs(source, section["h_list"], section["n_realizations"],
                          payload["seed"])[-1]

        def outcome(xi, cell_source, run_seed):
            cell = (xi, cell_source, run_seed)
            return solve_cells([cell], spring, restarts)(*cell)

        estimator = runs_estimator(runs, outcome)
    probes = section["probes"]
    frame = random_rotations(mesh["dim"], probes["frame_rotations"], probes["seed"])
    iso = random_rotations(mesh["dim"], probes["isotropy_rotations"], probes["seed"])
    expected = {str(xi_id): {
        "frame_invariance_deviation": frame_invariance_probe(estimator, xi, frame),
        "isotropy_deviation": isotropy_probe(estimator, xi, iso),
    } for xi_id, xi in enumerate(np.array(section["xi_list"], dtype=float))}
    code, _, out = run_every_jobs(tmp_path, payload, capsys)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["probes"] == expected


def test_homogenize_failed_build_recorded_on_each_cell_of_its_source(
        tmp_path, monkeypatch, capsys):
    # the pool's workers are forked after the patch, so they fail it too
    from polynet import homogenize
    from polynet.meshing import InfeasibleLatticeError

    bad_seed = homogenize._realization_seed(11, 1, 0)

    def failing(build):
        def failing_build(source):
            if source.lattice.seed == bad_seed:
                raise InfeasibleLatticeError("no admissible lattice")
            return build(source)
        return failing_build

    patch_cell_mesh(monkeypatch, failing)
    code, _, out = run_every_jobs(tmp_path, STOCHASTIC_TWO_XI, capsys)
    assert code == 0
    with open(out / "homogenize.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [row for row in rows if row["status"] == "failed"]
    assert len(rows) == 8
    assert {(row["xi_id"], row["seed"]) for row in failed} == {
        ("0", str(bad_seed)), ("1", str(bad_seed))}
    assert all(row["error"] == "InfeasibleLatticeError: no admissible lattice"
               for row in failed)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_homogenize_jobs_capped_at_allowed_cpus(tmp_path, capsys, monkeypatch):
    # --jobs 64 runs at most one process per allowed CPU, and its outputs
    # are those of --jobs 1
    from polynet import cli

    workers = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # two restarts: periodic cells with one are answered without a pool
    cfg = write_config(tmp_path, {**FAILING_FIRST, "solver": {"restarts": 2}})
    runs = []
    for jobs in ("1", "64"):
        out = tmp_path / f"jobs{jobs}"
        code = main(["homogenize", "--config", cfg, "--out", str(out), "--jobs", jobs])
        assert_no_pool_left()
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        runs.append((code, capsys.readouterr().out, files))
    assert runs[1] == runs[0]
    allowed = len(os.sched_getaffinity(0))
    assert len(workers) == (allowed > 1)
    assert all(count <= allowed - 1 for count in workers)
