import csv
import json
from pathlib import Path

import numpy as np
import pytest

from polynet.cli import main
from polynet.meshing import read_mesh


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


def test_homogenize_jobs_flag_equivalence(tmp_path):
    payload = dict(HOMOGENIZE_PERIODIC)
    payload["homogenize"] = {
        "xi_list": [[[1.0, 0.0], [0.0, 1.0]], [[1.1, 0.0], [0.0, 0.9]]],
        "m_list": [2, 4],
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    assert main(["homogenize", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["homogenize", "--config", cfg, "--out", str(out2),
                 "--jobs", "2"]) == 0
    assert (out1 / "homogenize.csv").read_bytes() == (
        out2 / "homogenize.csv"
    ).read_bytes()
    assert (out1 / "summary.json").read_bytes() == (
        out2 / "summary.json"
    ).read_bytes()


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
                                                     "m": 1, "diagonal": "nw"}})
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


def run_both_jobs(tmp_path, payload, capsys):
    """Run homogenize at --jobs 1 and 2: (exit codes, stdouts, output dirs)."""
    cfg = write_config(tmp_path, payload)
    codes, stdouts, outs = [], [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        codes.append(main(["homogenize", "--config", cfg, "--out", str(out),
                           "--jobs", jobs]))
        stdouts.append(capsys.readouterr().out)
        outs.append(out)
    return codes, stdouts, outs


def test_homogenize_failing_xi_same_outputs_for_every_jobs(tmp_path, capsys):
    codes, stdouts, (out1, out2) = run_both_jobs(tmp_path, FAILING_FIRST, capsys)
    assert codes == [0, 0]
    assert stdouts[0] == stdouts[1]
    for name in ("homogenize.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_homogenize_failing_xi_keeps_indices(tmp_path, capsys):
    _, _, (out, _) = run_both_jobs(tmp_path, FAILING_FIRST, capsys)
    summary = json.loads((out / "summary.json").read_text())
    assert [est["xi_id"] for est in summary["estimates"]] == [1]
    assert [entry["xi_id"] for entry in summary["failed"]] == [0]
    assert DET_REASON in summary["failed"][0]["error"]
    assert DET_REASON in summary["probes"]["0"]["error"]
    assert "isotropy_deviation" in summary["probes"]["1"]
    rows = (out / "homogenize.csv").read_text().strip().split("\n")
    assert {row.split(",")[0] for row in rows[1:]} == {"1"}


def test_homogenize_failed_cell_reason_in_csv(tmp_path, monkeypatch):
    from polynet import homogenize
    from polynet.optim import OptimizationError

    solve = homogenize.solve_cell_problem

    def fail_first_realization(problem):
        if problem.seed == homogenize._realization_seed(11, 0, 0):
            raise OptimizationError("line search failed")
        return solve(problem)

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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_homogenize_cell_bug_propagates(tmp_path, monkeypatch, jobs):
    # only polynet's own errors (ValueError, RuntimeError) become failed
    # cells; a bug in a cell solve ends the command with its traceback.  The
    # pool's workers are forked after the patch, so they raise it too.
    from polynet import homogenize

    monkeypatch.setattr(homogenize, "solve_cell_problem", _raise_index_error)
    cfg = write_config(tmp_path, TWO_XI_PERIODIC)
    with pytest.raises(IndexError):
        main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o"),
              "--jobs", jobs])


def test_homogenize_probe_bug_propagates(tmp_path, monkeypatch):
    from polynet import cli

    monkeypatch.setattr(cli, "isotropy_probe", _raise_index_error)
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
# (config edit, context of the message): each was a traceback (exit 1) or a
# sweep failure (exit 4) before it became a config error
BAD_VALUES = {
    "mesh diagonal": ({"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "diagonal": "sw"}},
                      "mesh: diagonal"),
    "mesh m": ({"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "m": 0}}, "mesh: m"),
    "m_list entry": ({"homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                     "m_list": [2, 0]}}, "homogenize: m"),
    "h_list entry": ({"mesh": STOCHASTIC_2D,
                      "homogenize": {**HOMOGENIZE_PERIODIC["homogenize"],
                                     "h_list": [0.2, -0.1]}}, "homogenize: h"),
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


@pytest.mark.parametrize("command, payload, ctx", [
    ("mesh", {"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "diagonal": "sw"}},
     "mesh: diagonal"),
    ("mesh", {"mesh": {**HOMOGENIZE_PERIODIC["mesh"], "m": 0}}, "mesh: m"),
    ("counterexample", {"counterexample": {"diagonal": "sw"}},
     "counterexample: diagonal"),
], ids=["mesh diagonal", "mesh m", "counterexample diagonal"])
def test_bad_value_is_config_error(tmp_path, capsys, command, payload, ctx):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {ctx}")
