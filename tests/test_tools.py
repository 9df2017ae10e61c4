"""Smoke runs of the measurement tools under tools/.

tools/field_allocs.py runs a benchmark workload in fresh interpreters and
prints one JSON object; its tracemalloc peak is the figure the run budgets
of tests/test_ownership.py bound, so the tool must agree with them.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_ownership import RUN_BUDGETS

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"workload", "src", "field_allocations", "tracemalloc_peak_fields", "peak_site",
        "minflt_median", "minflt_runs", "rss_before_run_mb", "maxrss_mb"}
# file:line function of one spball frame
FRAME = re.compile(r"\w+\.py:\d+ \w+")


@pytest.mark.parametrize("workload", sorted(RUN_BUDGETS))
def test_field_allocs_reports_a_peak_within_the_run_budget(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "field_allocs.py"), "--workload", workload,
         "--reps", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == KEYS
    assert out["workload"] == workload
    assert Path(out["src"]) == ROOT / "src"
    frames = out["peak_site"].split(" -> ")
    assert all(FRAME.fullmatch(frame) for frame in frames), frames
    assert frames[0].startswith("runner.py:") and frames[0].endswith(" run_experiment")
    assert 0 < out["tracemalloc_peak_fields"] <= RUN_BUDGETS[workload]
    assert out["field_allocations"] > 0
    assert len(out["minflt_runs"]) == 1 and out["minflt_median"] == out["minflt_runs"][0] > 0
    # imports and the config come first; the run can only raise the peak
    assert 0 < out["rss_before_run_mb"] <= out["maxrss_mb"]
