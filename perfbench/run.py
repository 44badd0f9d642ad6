"""polynet benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload cell3d-jittered --seed 0 --seconds 22 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is a report with the machine block, workload sizes and every
cell's outcome.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()  # --setup-only times its set-up from here

# A single client; BLAS stays on one thread (no more than nproc) in this
# process and in every process it starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cell3d-jittered", "cell2d-matern", "cli-periodic-probes"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import polynet, make the inputs, print that time and the kernel's")
    parser.add_argument("--write-refs", action="store_true",
                        help="compute this seed's references and store them in perfbench/refs")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import polynet from it."""
    if not (SRC / "polynet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polynet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polynet

    if Path(polynet.__file__).resolve().parent != SRC / "polynet":
        raise SystemExit(f"perfbench: polynet imported from {polynet.__file__}")


def make_inputs(name: str, seed: int):
    import workloads

    if name == workloads.CLI_WORKLOAD:
        return workloads.write_cli_config(seed, OUT / f"cli-seed{seed}")
    return workloads.make_cells(name, seed)


def measure_setup(name: str, seed: int) -> list:
    """Fresh processes that import polynet and make the inputs.

    Each process times its own set-up and then the yardstick kernel, so the
    scale comes from the same process and moment.
    """
    import timing

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        raw, kernel = json.loads(out.stdout)
        runs.append(timing.Pass(raw, raw * timing.REFERENCE_S / kernel, None))
    return runs


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def with_units(values: dict, kind: str) -> dict:
    """values as result metrics, each with its unit from BENCHMARK.json[kind]."""
    registered = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in registered}
    if units.keys() != values.keys():
        raise SystemExit(f"perfbench: {kind} metrics computed and registered differ: "
                         f"{sorted(units.keys() ^ values.keys())}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_only:
        make_inputs(args.workload, args.seed)
        setup = time.perf_counter() - START
        import timing

        timing.kernel_time()  # first call pays one-time costs
        kernel = statistics.mean(timing.kernel_time() for _ in range(3))
        print(json.dumps([setup, kernel]))
        return 0

    import checks
    import reference
    import spans
    import timing
    import workloads

    if args.write_refs:
        path = reference.write_references(args.workload, args.seed, OUT, machine_block())
        print(f"wrote {path}")
        return 0

    setups = measure_setup(args.workload, args.seed)
    inputs = make_inputs(args.workload, args.seed)
    # warm-up on a small input, so lazy imports and first-call costs stay
    # out of the first timed pass
    if args.workload == workloads.CLI_WORKLOAD:
        out_dir = inputs.parent / "pass"
        warm = workloads.write_cli_config(args.seed, inputs.parent, "warm-up.json",
                                          m_list=[2, 3], rotations=1)
        workloads.run_cli(warm, out_dir)

        def run_pass(speed):
            start = time.perf_counter()
            run = workloads.run_cli(inputs, out_dir)
            raw = time.perf_counter() - start
            return timing.Pass(raw, raw * speed.scale(raw), run)
    else:
        workloads.run_cells(inputs[:1], timing.Speed())

        def run_pass(speed):
            return workloads.run_cells(inputs, speed)

    def count(seconds):
        return workloads.pass_count(args.workload, seconds)

    units = 1 if args.workload == workloads.CLI_WORKLOAD else len(inputs)
    unit_s = workloads.PASS_S[args.workload] / units

    if args.trace:
        untraced = timing.timed_passes(run_pass, count(args.seconds / 2.0), unit_s)
        recorder = spans.Recorder()
        boundaries = []

        def traced_pass(speed):
            first = len(recorder.spans)
            result = run_pass(speed)
            boundaries.append((first, len(recorder.spans)))
            return result

        recorder.install()
        try:
            traced = timing.timed_passes(traced_pass, count(args.seconds / 2.0), unit_s)
        finally:
            recorder.uninstall()
        passes = untraced + traced
    else:
        passes = timing.timed_passes(run_pass, count(args.seconds), unit_s)
    rss = peak_rss_mb()

    if args.workload == workloads.CLI_WORKLOAD:
        check = checks.check_cli(args.seed, inputs, passes)
    else:
        check = checks.check_cells(args.workload, args.seed, inputs, passes)

    pass_times = [p.ref_s for p in passes]
    if args.trace:
        per_pass = [
            spans.layer_metrics(recorder.spans[a:b], a)
            for a, b in boundaries
        ]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.ref_s for p in traced)
            - statistics.median(p.ref_s for p in untraced)
        )
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "span": ["name", "start", "end", "parent", "attrs"],
            "passes": boundaries,
            "note": spans.POOL_NOTE if args.workload == workloads.CLI_WORKLOAD else "",
        })
        result_metrics = with_units(metrics, "per_layer")
    else:
        values = {
            "wall_s": statistics.median(pass_times),
            "cells_per_s": check["matched"] / sum(pass_times),
            "cell_p50_s": check["cell_p50_s"],
            "ok_frac": check["ok_frac"],
            "setup_s": statistics.median(p.ref_s for p in setups),
            "peak_rss_mb": rss,
        }
        result_metrics = with_units(values, "end_to_end")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(),
        "time_unit": (f"reference s: raw s * {timing.REFERENCE_S} / "
                      "mean yardstick kernel s just before and after each unit of work"),
        "pass_times_s": pass_times,
        "pass_raw_s": [p.raw_s for p in passes],
        "setup_raw_s": [p.raw_s for p in setups],
        "setup_times_s": [p.ref_s for p in setups],
        "references": check["reference_source"],
        "sizes": check["sizes"],
        "outcomes": check["outcomes"],
        "problems": check["problems"],
    }
    if args.trace:
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["attempted"] - check["matched"],
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
