"""tools/paired_bench.py's run order and per-metric summary on synthetic
perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
SPEC = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(paired_bench)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result_line(wall_s, cells_per_s) -> str:
    return json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "cells_per_s": {"value": cells_per_s, "unit": "1/s"}}})


def test_parent_runs_first_on_odd_pairs():
    assert [paired_bench.run_order(k) for k in (1, 2, 3, 4)] == [
        ("parent", "change"), ("change", "parent")] * 2


def test_summary_of_synthetic_result_lines():
    parent = [json.loads(result_line(w, 10.0)) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [json.loads(result_line(w, c))
              for w, c in zip((0.5, 1.5, 2.5, 3.5, 0.1), (11.0, 9.0, 12.0, 10.0, 13.0))]
    wall, rate = paired_bench.summarize(parent, change, END_TO_END)
    # wall_s: quartiles 2 and 4, so a median 1.5 lower is within the IQR
    # although the change won every pair, and an IQR of 2/3 of the median
    # is wider than the 0.25 bound
    assert wall == {"metric": "wall_s", "parent_median": 3.0, "change_median": 1.5,
                    "delta_rel": -0.5, "parent_iqr": 2.0, "wins": 5, "pairs": 5,
                    "beyond_iqr": False, "gain": False, "bound": "unresolved"}
    # cells_per_s is higher-better; a tie is no win, a constant parent has
    # IQR 0, and 3 wins of 5 are too few for a gain
    assert rate == {"metric": "cells_per_s", "parent_median": 10.0, "change_median": 11.0,
                    "delta_rel": pytest.approx(0.1), "parent_iqr": 0.0, "wins": 3, "pairs": 5,
                    "beyond_iqr": True, "gain": False, "bound": "ok"}
    table = paired_bench.format_rows([wall, rate]).splitlines()
    assert table[1].split() == ["wall_s", "3", "1.5", "-50.00%", "2", "5/5", "no", "no",
                                "unresolved"]
    assert table[2].split() == ["cells_per_s", "10", "11", "+10.00%", "0", "3/5", "yes", "no",
                                "ok"]


@pytest.mark.parametrize("shift, wins, gain, bound", [
    (-0.1, 10, True, "ok"),      # better beyond the IQR in every pair
    (+0.1, 0, False, "ok"),      # worse beyond the IQR, but within the bound
    (+0.3, 0, False, "worse"),   # worse by more than the 0.25 bound
])
def test_gain_needs_nine_tenths_of_the_pairs_and_bound_flags_regressions(
        shift, wins, gain, bound):
    walls = [1.0 + 0.01 * k for k in range(10)]
    parent = [json.loads(result_line(w, 10.0)) for w in walls]
    change = [json.loads(result_line(w + shift, 10.0)) for w in walls]
    wall, _ = paired_bench.summarize(parent, change, END_TO_END)
    assert (wall["wins"], wall["beyond_iqr"], wall["gain"], wall["bound"]) == (
        wins, True, gain, bound)
    # one pair of ten not won (a tie) still allows a gain, two do not
    for lost, expect in ((1, gain), (2, False)):
        mixed = change[lost:] + parent[:lost]
        assert paired_bench.summarize(parent[lost:] + parent[:lost], mixed,
                                      END_TO_END)[0]["gain"] is expect


def test_summary_needs_paired_results():
    one = [json.loads(result_line(1.0, 1.0))]
    with pytest.raises(ValueError, match="same positive number"):
        paired_bench.summarize(one, one * 2, END_TO_END)
    with pytest.raises(ValueError, match="same positive number"):
        paired_bench.summarize([], [], END_TO_END)
