"""Alternating perfbench runs of two checkouts, summarized per end-to-end metric.

    python tools/paired_bench.py PARENT CHANGE --workload W --pairs N

PARENT and CHANGE are checkout directories.  Pair k runs each checkout's
`perfbench/run.py` once, in its own directory, the parent first on odd k
and the change first on even k, so a drift of the machine during the runs
does not fall on one side.  For each end-to-end metric of CHANGE's
BENCHMARK.json it prints both medians, the relative change of the median,
the parent's quartile distance (IQR), how many pairs the change won
(strictly better in the metric's direction), whether |change median -
parent median| exceeds the parent's IQR, and two verdicts:

- gain: the change is better, beyond the IQR, and won at least nine tenths
  of the pairs -- the rule a claimed gain must pass;
- bound: "ok" when the change's median is worse than the parent's by no
  more than the metric's relative `bound`, "worse" when it is, and
  "unresolved" when the parent's IQR is wider than the bound, so the runs
  spread too widely to tell.

Each checkout's perfbench runs with its own run length.  The tool only runs
and reads perfbench; nothing is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` (counted from 1) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """The result line (the last line of stdout) of one perfbench run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"paired_bench: perfbench failed in {checkout} "
                         f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    """Distance between the upper and lower quartiles (inclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from paired result lines: parent[k] and
    change[k] are pair k's results, end_to_end BENCHMARK.json's entries."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change results")
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        old_median, new_median = statistics.median(old), statistics.median(new)
        spread = iqr(old)
        delta_rel = (new_median - old_median) / old_median if old_median else 0.0
        worse_rel = delta_rel if lower else -delta_rel
        wins = sum(b < a if lower else b > a for a, b in zip(old, new))
        beyond_iqr = abs(new_median - old_median) > spread
        if old_median and spread / abs(old_median) > metric["bound"]:
            bound = "unresolved"
        else:
            bound = "worse" if worse_rel > metric["bound"] else "ok"
        rows.append({
            "metric": name,
            "parent_median": old_median,
            "change_median": new_median,
            "delta_rel": delta_rel,
            "parent_iqr": spread,
            "wins": wins,
            "pairs": len(old),
            "beyond_iqr": beyond_iqr,
            "gain": worse_rel < 0 and beyond_iqr and 10 * wins >= 9 * len(old),
            "bound": bound,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<12} {'parent':>12} {'change':>12} {'delta':>8} "
             f"{'parent_iqr':>12} {'wins':>6}  {'|delta|>iqr':<11} {'gain':<4} bound"]
    for row in rows:
        lines.append(
            f"{row['metric']:<12} {row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
            f"{row['delta_rel']:>+8.2%} {row['parent_iqr']:>12.6g} "
            f"{row['wins']:>3}/{row['pairs']:<2}  {'yes' if row['beyond_iqr'] else 'no':<11} "
            f"{'yes' if row['gain'] else 'no':<4} {row['bound']}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    results = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in run_order(pair):
            result = run_perfbench(checkouts[side], args.workload, args.seed)
            results[side].append(result)
            print(f"pair {pair} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}, metrics "
                  + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
    incorrect = {side: sum(not r["correct"] for r in results[side]) for side in SIDES}
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs; "
          f"runs not correct: parent {incorrect['parent']}, change {incorrect['change']}")
    print(format_rows(summarize(results["parent"], results["change"], end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
