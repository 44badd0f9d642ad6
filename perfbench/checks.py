"""Outcome accounting: every cell is ok, a raised exception, or a reference miss.

A cell counts as matched when it returned a value within `REL_TOL` of its
reference.  A raised exception counts as failed; so does a miss, which also
makes the run incorrect, as do a size that differs from the stored one and
an exception whose type is not one of polynet's.
"""

from __future__ import annotations

import statistics

import reference
import workloads


def _status(outcome: workloads.CellOutcome, ref_value: float | None) -> str:
    if outcome.error is not None:
        return outcome.error
    if ref_value is None or reference.rel_err(outcome.value, ref_value) > reference.REL_TOL:
        return "mismatch"
    return "ok"


def check_cells(name: str, seed: int, cells, passes) -> dict:
    stored = reference.stored_cells(name, seed)
    returned = {o.id for p in passes for o in p.result if o.error is None}
    measured = reference.cell_references(cells, returned - stored.keys())
    refs = {**measured, **stored}
    problems = {}
    for cell in cells:
        sizes = measured[cell.id]["sizes"]
        if cell.id in stored and sizes != stored[cell.id]["sizes"]:
            problems[cell.id] = f"sizes {sizes} differ from stored {stored[cell.id]['sizes']}"

    # ok_frac counts the fixed panel when there is one (see workloads.py)
    counted = {c.id for c in cells if c.panel} or {c.id for c in cells}
    attempted = matched = ok_attempted = ok_matched = 0
    latencies = []
    by_id = {cell.id: [] for cell in cells}
    for p in passes:
        for o in p.result:
            attempted += 1
            ok_attempted += o.id in counted
            latencies.append(o.latency_s * o.scale)
            ref_value = refs[o.id]["value"]
            status = _status(o, ref_value)
            by_id[o.id].append((status, o))
            if status == "ok":
                matched += 1
                ok_matched += o.id in counted
            elif status == "mismatch":
                problems[o.id] = f"value {o.value!r} misses reference {ref_value!r}"
            elif not o.typed:
                problems[o.id] = f"untyped exception {o.error}"
            if o.n_free is not None and o.n_free != measured[o.id]["sizes"]["free"]:
                problems[o.id] = f"n_free {o.n_free} differs from the mesh's"

    outcomes = []
    for cell in cells:
        runs = by_id[cell.id]
        first = runs[0][1]
        ref_value = refs[cell.id]["value"]
        outcomes.append({
            "id": cell.id,
            "lattice_seed": cell.lattice_seed,
            "status": sorted({s for s, _ in runs}),
            "value": first.value,
            "reference": ref_value,
            "rel_err": (None if first.value is None or ref_value is None
                        else reference.rel_err(first.value, ref_value)),
            "iterations": first.iterations,
            "raw_latency_s": statistics.median(o.latency_s for _, o in runs),
        })
    sizes = {cell.id: measured[cell.id]["sizes"] for cell in cells}
    totals = {k: sum(s[k] for s in sizes.values()) for k in ("vertices", "elements", "free")}
    return {
        "attempted": attempted,
        "matched": matched,
        "ok_frac": ok_matched / ok_attempted,
        "correct": not problems,
        "cell_p50_s": statistics.median(latencies),
        "reference_source": (
            f"{sum(c.id in stored for c in cells)} of {len(cells)} stored, the rest computed"
        ),
        "sizes": {"cells": len(cells), **totals, "per_cell": sizes},
        "outcomes": outcomes,
        "problems": problems,
    }


def check_cli(seed: int, config, passes) -> dict:
    stored = reference.stored(workloads.CLI_WORKLOAD, seed)
    sizes = reference.cli_sizes()
    problems = {}
    if stored:
        ref = stored
        if sizes != stored["sizes"]:
            problems["sizes"] = f"sizes {sizes} differ from stored {stored['sizes']}"
    else:
        ref = reference.cli_reference(config, config.parent / "ref")
    per_pass = workloads.CLI_CELLS_PER_XI * workloads.CLI_XI_COUNT
    probe_evals = 1 + workloads.CLI_ROTATIONS

    attempted = matched = 0
    outcomes = []
    for p in passes:
        run = p.result
        attempted += per_pass
        if run.error is not None or run.exit_code != 0:
            outcomes.append({"exit_code": run.exit_code, "error": run.error, "matched": 0})
            continue
        if len(run.rows) != len(ref["values"]):
            problems["rows"] = f"{len(run.rows)} rows, reference has {len(ref['values'])}"
        got = 0
        for i, row in enumerate(run.rows[: len(ref["values"])]):
            if row["status"] != "ok":
                continue
            err = reference.rel_err(float(row["value"]), ref["values"][i])
            if err <= reference.REL_TOL:
                got += 1
            else:
                problems[f"row{i}"] = f"value {row['value']} misses {ref['values'][i]!r}"
        for xi_id in range(workloads.CLI_XI_COUNT):
            mine = run.probes.get(str(xi_id), {})
            for key, ref_dev in ref["probes"].get(str(xi_id), {}).items():
                if key in mine and abs(mine[key] - ref_dev) <= reference.PROBE_ABS_TOL:
                    got += probe_evals
                else:
                    problems[f"probe{xi_id}.{key}"] = f"{mine.get(key)!r} misses {ref_dev!r}"
        matched += got
        outcomes.append({
            "exit_code": run.exit_code,
            "matched": got,
            "iterations": [int(r["iterations"]) for r in run.rows],
            "statuses": sorted({r["status"] for r in run.rows}),
        })
    return {
        "attempted": attempted,
        "matched": matched,
        "ok_frac": matched / attempted,
        "correct": not problems,
        "cell_p50_s": statistics.median(p.ref_s / per_pass for p in passes),
        "reference_source": "stored" if stored else "computed (--jobs 1 run)",
        "sizes": {"cells": per_pass, **sizes},
        "outcomes": outcomes,
        "problems": problems,
    }

