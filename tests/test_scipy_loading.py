"""scipy loads on first use, never on import: a periodic run loads none of it
at any --jobs, and no run loads scipy.optimize.

Each check runs in a fresh interpreter, since the test process itself has
imported scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PERIODIC_RUNS = """
from polynet.cli import main

for command, name, jobs in (("homogenize", "homogenize_periodic", ["--jobs", "1"]),
                            ("homogenize", "homogenize_periodic", ["--jobs", "2"]),
                            ("mesh", "mesh_periodic", []),
                            ("counterexample", "counterexample", [])):
    args = [command, "--config", f"{configs}/{name}.json", "--out", f"{out}/{name}"]
    assert main(args + jobs) == 0, (command, jobs)
"""

STOCHASTIC_MESH = """
from polynet.meshing import StochasticLatticeSpec, build_stochastic_mesh

spec = StochasticLatticeSpec(kind="matern-hardcore", intensity=1.0, r_min=0.3,
                             R_cov=1.0, seed=3)
build_stochastic_mesh(spec, 0.25, 2)
"""


STOCHASTIC_RUN = """
from polynet.cli import main

args = ["homogenize", "--config", f"{configs}/homogenize_stochastic.json",
        "--out", f"{out}/homogenize_stochastic", "--jobs", "1"]
assert main(args) == 0
"""

# the parent imports what a stochastic cell needs before the pool forks, so
# the workers inherit it rather than importing it each
STOCHASTIC_FORK = """
from polynet import cli

class CheckingPool(cli.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        assert {"scipy.spatial", "scipy.sparse.linalg"} <= set(sys.modules)
        super().__init__(*args, **kwargs)

cli.ProcessPoolExecutor = CheckingPool
args = ["homogenize", "--config", f"{configs}/homogenize_stochastic.json",
        "--out", f"{out}/homogenize_stochastic", "--jobs", "2"]
assert cli.main(args) == 0
"""


def scipy_modules_after(code, tmp_path):
    """Names of the scipy modules loaded by running code in a fresh interpreter."""
    script = "\n".join([
        "import json, sys",
        f"configs, out = {str(ROOT / 'configs')!r}, {str(tmp_path)!r}",
        code,
        'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))',
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_periodic_runs_load_no_scipy(tmp_path):
    assert scipy_modules_after(PERIODIC_RUNS, tmp_path) == []


def test_stochastic_mesh_loads_scipy_spatial(tmp_path):
    # positive control: the check sees scipy once a run needs it
    assert "scipy.spatial" in scipy_modules_after(STOCHASTIC_MESH, tmp_path)


def test_stochastic_run_loads_no_scipy_optimize(tmp_path):
    # it triangulates, factorizes and line-searches; the line search is
    # polynet's own
    loaded = scipy_modules_after(STOCHASTIC_RUN, tmp_path)
    assert "scipy.spatial" in loaded
    assert "scipy.sparse.linalg" in loaded
    assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]]


def test_stochastic_run_loads_scipy_before_the_pool_forks(tmp_path):
    assert "scipy.spatial" in scipy_modules_after(STOCHASTIC_FORK, tmp_path)
