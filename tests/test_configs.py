"""Every shipped config in configs/ runs to exit 0.

The command is the file-name prefix: minimize_stretch.json runs
`polynet minimize`.  Outputs go to a temporary directory.
"""

import json
from pathlib import Path

import pytest

from polynet.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_configs_exist():
    assert len(CONFIGS) >= 6


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.name)
def test_config_runs(config, tmp_path):
    command = config.stem.split("_")[0]
    assert command in COMMANDS
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0


def test_periodic_homogenize_never_enters_the_kernel(tmp_path, monkeypatch):
    # every periodic cell with one restart is answered by periodic_density:
    # no kernel call and no factorization
    from polynet import optim

    calls = []

    def counted(name):
        real = getattr(optim, name)

        def spy(*args):
            calls.append(name)
            return real(*args)
        return spy

    for name in ("energy_and_gradient", "edge_stiffness_laplacian"):
        monkeypatch.setattr(optim, name, counted(name))
    config = ROOT / "configs" / "homogenize_periodic.json"
    argv = ["homogenize", "--config", str(config), "--out", str(tmp_path), "--jobs", "1"]
    assert main(argv) == 0
    assert calls == []


def _homogenize(tmp_path, config, jobs="1"):
    """Exit code of `polynet homogenize`, by default at --jobs 1, so every
    mesh is built here."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["homogenize", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--jobs", jobs])


PERIODIC_3D = {
    "seed": 0,
    "model": {"pair": {"kind": "langevin-chain"}, "volumetric": {"K": 1.0, "eta": 0.1}},
    "mesh": {"kind": "periodic", "dim": 3, "m": 4},
    "homogenize": {"xi_list": [[[1.05, 0.02, 0.0], [0.0, 0.97, 0.01], [0.03, 0.0, 1.0]]],
                   "m_list": [4, 6, 7],
                   "probes": {"frame_rotations": 2, "isotropy_rotations": 2, "seed": 1}},
}


@pytest.mark.parametrize("config", [json.loads((ROOT / "configs" / "homogenize_periodic.json")
                                               .read_text()), PERIODIC_3D],
                         ids=["homogenize_periodic.json", "periodic-3d-langevin-vol"])
def test_periodic_homogenize_builds_no_mesh_and_forks_no_worker(tmp_path, monkeypatch,
                                                                 config):
    # with one restart every periodic cell, probe cells included, is
    # answered in this process by one periodic_density call on the stack of
    # their xi: no m-cell mesh, no pool
    from polynet import cli, homogenize

    def refuse(*args, **kwargs):
        raise AssertionError("a periodic sweep with one restart built a mesh or a pool")

    calls = []
    density = homogenize.periodic_density

    def counted(*args):
        calls.append(args)
        return density(*args)

    monkeypatch.setattr(homogenize, "build_cell_mesh", refuse)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(homogenize, "periodic_density", counted)
    assert _homogenize(tmp_path, config, jobs="2") == 0
    assert len(calls) == 1


def test_periodic_restarts_still_enter_the_kernel(tmp_path, monkeypatch):
    # the perturbed starts of restarts after the first are not affine
    from polynet import optim

    calls = []
    real = optim.energy_and_gradient

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(optim, "energy_and_gradient", counted)
    config = {**PERIODIC_3D, "solver": {"restarts": 2}}
    assert _homogenize(tmp_path, config) == 0
    assert calls and all("geometry" in mesh._cache for mesh in calls)
