"""Every shipped config in configs/ runs to exit 0.

The command is the file-name prefix: minimize_stretch.json runs
`polynet minimize`.  Outputs go to a temporary directory.
"""

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
    # every periodic cell stops at its affine start, whose energy and
    # gradient come in closed form: no kernel call and no factorization
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
