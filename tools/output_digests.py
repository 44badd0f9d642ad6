"""SHA-256 digests of the CLI's and the demos' outputs, one line per output.

Runs every configs/*.json command (the command is the file-name prefix) and
the perfbench CLI config (perfbench/workloads.write_cli_config) at seeds 1
and 5, each at --jobs 1 and 2, then every demos/*.py script.  Every run is a
fresh interpreter with this checkout's src/ first on the path, started in
its own temporary directory (holding a copy of the config), so no output
names a path of the checkout.  For each output file, stdout, stderr and the
exit code of a config run it prints one line, `case jobs name sha256`, and
for each demo's stdout, stderr and exit code one line, `demo file name
sha256`, so two checkouts write the same outputs exactly when their
printouts are equal:

    python tools/output_digests.py > change.txt
    (cd ../parent && python tools/output_digests.py) > parent.txt
    diff parent.txt change.txt

Given paths, only those run: a .py path as a demo, any other as a config
(no perfbench config).
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(args: list[str], work: Path) -> list[tuple[str, str]]:
    """(name, sha256) of the stdout, stderr and exit code of `python args`,
    run in work with this checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                          check=False)
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


def _perfbench_configs(work: Path) -> list[tuple[str, str, Path]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return [(f"perfbench-seed{seed}", "homogenize",
             workloads.write_cli_config(seed, work / f"seed{seed}"))
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
