"""SHA-256 digests of the CLI's and the demos' outputs, one line per output.

Runs every configs/*.json command (the command is the file-name prefix) and
the perfbench CLI config (perfbench/workloads.write_cli_config) at seeds 1
and 5, each at --jobs 1 and 2, then every demos/*.py script, then every
cell of the perfbench cell workloads at seeds 0-2.  Every run is a fresh
interpreter with this checkout's src/ first on the path, started in its own
temporary directory (holding a copy of the config), so no output names a
path of the checkout.  For each output file, stdout, stderr and the exit
code of a config run it prints one line, `case jobs name sha256`, for each
demo's stdout, stderr and exit code one line, `demo file name sha256`, and
for each cell workload and seed one line, `perfbench-cells workload seed<k>
sha256`, of every cell's id, value and grad_norm (as hex), iterations,
evaluations and status, solved as the benchmark solves it (BLAS on one
thread).  So two checkouts write the same outputs exactly when their
printouts are equal:

    python tools/output_digests.py > change.txt
    (cd ../parent && python tools/output_digests.py) > parent.txt
    diff parent.txt change.txt

Given paths, only those run: a .py path as a demo, any other as a config
(no perfbench config and no cells).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = (1, 2)
PERFBENCH_SEEDS = (1, 5)
MAIN = "import sys; from polynet.cli import main; sys.exit(main())"
CELL_SEEDS = (0, 1, 2)
# one line per cell of perfbench workload argv[1] at seed argv[2]
CELLS = """
import sys
import workloads
from polynet.homogenize import solve_cell_problem
for cell in workloads.make_cells(sys.argv[1], int(sys.argv[2])):
    try:
        r = solve_cell_problem(cell.problem)
    except Exception as exc:
        print(cell.id, f"{type(exc).__name__}: {exc}")
    else:
        print(cell.id, r.value.hex(), r.grad_norm.hex(), r.iterations, r.evaluations, r.status)
"""
ONE_BLAS_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _python(args: list[str], work: Path, paths=("src",), env=None):
    """`python args` run in work with these directories of the checkout
    first on the path and env added to the environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        [*(str(ROOT / path) for path in paths), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                          check=False)


def _run(args: list[str], work: Path) -> list[tuple[str, str]]:
    """(name, sha256) of the stdout, stderr and exit code of `python args`,
    run in work with this checkout's src/ first on the path."""
    done = _python(args, work)
    return [("<stdout>", _sha256(done.stdout)), ("<stderr>", _sha256(done.stderr)),
            ("<exit>", _sha256(str(done.returncode).encode()))]


def digest_run(command: str, config: Path, jobs: int) -> list[tuple[str, str]]:
    """(name, sha256) of each output file, sorted by relative path, then of
    stdout, stderr and the exit code of one `polynet command` run."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copyfile(config, work / config.name)
        streams = _run(["-c", MAIN, command, "--config", config.name, "--out", "out",
                        "--jobs", str(jobs)], work)
        out = work / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        lines = [(p.relative_to(out).as_posix(), _sha256(p.read_bytes())) for p in files]
    return lines + streams


def digest_demo(demo: Path) -> list[tuple[str, str]]:
    """(name, sha256) of the stdout, stderr and exit code of one demo script,
    run in a fresh temporary directory (some demos write files there)."""
    with tempfile.TemporaryDirectory() as tmp:
        return _run([str(demo)], Path(tmp))


def digest_cells(workload: str, seed: int) -> str:
    """sha256 of the outcome lines of every cell of one perfbench cell
    workload at one seed, solved in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        done = _python(["-c", CELLS, workload, str(seed)], Path(tmp), ("src", "perfbench"),
                       ONE_BLAS_THREAD)
    if done.returncode:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr.decode()}")
    return _sha256(done.stdout)


def _workloads():
    """perfbench's workloads module, imported from this checkout."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return workloads


def _perfbench_configs(work: Path) -> list[tuple[str, str, Path]]:
    return [(f"perfbench-seed{seed}", "homogenize",
             _workloads().write_cli_config(seed, work / f"seed{seed}"))
            for seed in PERFBENCH_SEEDS]


def main(argv: list[str]) -> int:
    paths = [Path(arg).resolve() for arg in argv] or [
        *sorted((ROOT / "configs").glob("*.json")), *sorted((ROOT / "demos").glob("*.py"))]
    configs = [path for path in paths if path.suffix != ".py"]
    demos = [path for path in paths if path.suffix == ".py"]
    with tempfile.TemporaryDirectory() as tmp:
        cases = [(path.name, path.stem.split("_")[0], path) for path in configs]
        if not argv:
            cases += _perfbench_configs(Path(tmp))
        for case, command, config in cases:
            for jobs in JOBS:
                for name, digest in digest_run(command, config, jobs):
                    print(case, jobs, name, digest, flush=True)
    for demo in demos:
        for name, digest in digest_demo(demo):
            print("demo", demo.name, name, digest, flush=True)
    if not argv:
        for workload in sorted(_workloads().CELL_WORKLOADS):
            for seed in CELL_SEEDS:
                print("perfbench-cells", workload, f"seed{seed}", digest_cells(workload, seed),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
