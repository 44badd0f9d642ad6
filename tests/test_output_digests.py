"""tools/output_digests.py prints the same digests for --jobs 1 and 2, and
again on a second run, for two quick configs and one demo; its digest of a
perfbench cell workload is that of every cell's outcome."""

import hashlib
import subprocess
import sys
from pathlib import Path

from polynet.homogenize import solve_cell_problem

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [ROOT / "configs" / name for name in ("counterexample.json", "mesh_periodic.json")]
DEMO = ROOT / "demos" / "01_chain_potentials.py"


def _digests() -> list[list[str]]:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"),
                           *map(str, CONFIGS), str(DEMO)], capture_output=True, text=True,
                          check=True, timeout=300)
    assert done.stderr == ""
    return [line.split() for line in done.stdout.splitlines()]


def test_output_digests_agree_across_jobs_and_runs():
    lines = _digests()
    assert all(len(line) == 4 for line in lines)
    # the demo's stdout, stderr (empty) and exit code (0), after every config line
    assert [line[:3] for line in lines[-3:]] == [
        ["demo", DEMO.name, stream] for stream in ("<stdout>", "<stderr>", "<exit>")]
    assert [line[3] for line in lines[-2:]] == [
        hashlib.sha256(data).hexdigest() for data in (b"", b"0")]
    by_jobs = {jobs: [(case, name, digest) for case, j, name, digest in lines[:-3]
                      if j == jobs] for jobs in ("1", "2")}
    assert by_jobs["1"] == by_jobs["2"]
    names = {(case, name) for case, name, _ in by_jobs["1"]}
    assert names == {("counterexample.json", "counterexample.json"),
                     ("mesh_periodic.json", "mesh.txt"),
                     *((config.name, stream) for config in CONFIGS
                       for stream in ("<stdout>", "<stderr>", "<exit>"))}
    assert _digests() == lines


def test_perfbench_cells_digest_is_every_cell_outcome(monkeypatch):
    # the digest the tool takes in a fresh interpreter, of the outcomes solved here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digests
    import workloads

    lines = []
    for cell in workloads.make_cells("cell2d-matern", 0):
        r = solve_cell_problem(cell.problem)
        lines.append(f"{cell.id} {r.value.hex()} {r.grad_norm.hex()} {r.iterations} "
                     f"{r.evaluations} {r.status}\n")
    assert len(lines) == 24
    assert output_digests.digest_cells("cell2d-matern", 0) == hashlib.sha256(
        "".join(lines).encode()).hexdigest()
