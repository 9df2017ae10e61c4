"""Smoke runs of the measurement tools under tools/.

tools/field_allocs.py runs a benchmark workload in fresh interpreters and
prints one JSON object; its tracemalloc peak is the figure the run budgets
of tests/test_ownership.py bound, so the tool must agree with them.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_ownership import RUN_BUDGETS

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"workload", "src", "field_allocations", "tracemalloc_peak_fields", "peak_site",
        "sector_transforms", "full_transforms", "stencils", "minflt_median", "minflt_runs",
        "rss_before_run_mb", "maxrss_mb"}
# workload -> (sine transforms on the mirror-even sector, on the full cube,
# stencils) of one run: two transforms per solve, and every solve of a run
# has a mirror-even right-hand side
WORK = {"solve-n32": (8, 0, 1), "descent-n32": (20, 0, 4)}
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
    assert (out["sector_transforms"], out["full_transforms"], out["stencils"]) == WORK[workload]
    assert len(out["minflt_runs"]) == 1 and out["minflt_median"] == out["minflt_runs"][0] > 0
    # imports and the config come first; the run can only raise the peak
    assert 0 < out["rss_before_run_mb"] <= out["maxrss_mb"]


def test_peak_site_names_function_frames_only():
    # a peak reached inside a generator expression names the function that
    # holds it, not a <genexpr> frame, which FRAME would reject
    spec = importlib.util.spec_from_file_location("field_allocs", ROOT / "tools" / "field_allocs.py")
    field_allocs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(field_allocs)
    # the chain is taken while the generator runs, as the trace hook takes it
    source = "def held():\n    return next(chain(sys._getframe()) for _ in [0])\n"
    namespace = {"sys": sys, "chain": field_allocs.spball_chain}
    exec(compile(source, str(ROOT / "src" / "spball" / "held.py"), "exec"), namespace)
    chain = namespace["held"]()
    assert chain == ["held.py:2 held"]
    assert all(FRAME.fullmatch(site) for site in chain)
