"""Field-sized allocations, tracemalloc peak, minor page faults and resident memory of one run.

Usage:
    python tools/field_allocs.py --workload descent-n32 [--src DIR] [--reps 5]

Takes the workload's config from perfbench/run.py and calls
spball.runner.run_experiment on it, without writing outputs, in fresh
interpreters that import spball from DIR (default: this checkout's src):

- allocations: one traced run after a warm one, with tracemalloc on and a
  per-opcode trace hook; each bytecode instruction whose traced memory rose
  by k field sizes ((n-1)^3 float64 values) above its start counts k
  allocations, and the run's tracemalloc peak is given in fields too;
- peak_site: the spball call chain, outermost first, as file:line function
  of each named function's frame, at which the traced run's memory first
  reached its maximum;
- sector_transforms, full_transforms and stencils: the traced run's calls
  of the sine transform (spball.poisson._dst1, two per Poisson solve) on
  the mirror-even sector of (n // 2)^3 nodes and on the full (n-1)^3 cube,
  told apart by the size of the transform's output buffer, and of the
  7-point stencil (spball.grid.neg_laplacian_array): the work that a change
  of memory alone leaves as it was;
- minor faults: --reps untraced cold runs, each in its own interpreter,
  reading getrusage's ru_minflt just before and after run_experiment;
- resident memory, from those same runs: VmRSS just before run_experiment,
  once spball is imported and the config built, and getrusage's ru_maxrss
  after it, the figure the benchmark reports as peak_rss_mb. Their gap is
  what the run adds to what imports left: fields, and code first used by the
  run.

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workload_config(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    return {"coupling": {"constant": 1}, **run.WORKLOADS[name]["config"]}


def count_allocations(config, field_bytes: int) -> dict:
    from spball import grid, poisson
    from spball.runner import run_experiment

    run_experiment(config)  # sine factors and imports, as a warm run
    allocations = 0
    start = 0
    top, site = 0, []
    transform, stencil = poisson._dst1.__code__, grid.neg_laplacian_array.__code__
    calls = dict.fromkeys(("sector_transforms", "full_transforms", "stencils"), 0)

    def hook(frame, event, arg):
        nonlocal allocations, start, top, site
        frame.f_trace_opcodes = True
        if event == "call" and frame.f_code is transform:
            full = len(frame.f_locals["out"]) == config.grid_n - 1
            calls["full_transforms" if full else "sector_transforms"] += 1
        elif event == "call" and frame.f_code is stencil:
            calls["stencils"] += 1
        elif event in ("opcode", "line", "return"):
            current, peak = tracemalloc.get_traced_memory()
            allocations += max(0, round((peak - start) / field_bytes - 0.25))
            if peak > top:  # the instruction just run reached a new maximum
                top, site = peak, spball_chain(frame)
            tracemalloc.reset_peak()
            start = current
        return hook

    tracemalloc.start()
    sys.settrace(hook)
    try:
        run_experiment(config)
    finally:
        sys.settrace(None)
    tracemalloc.stop()
    tracemalloc.start()
    run_experiment(config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "field_allocations": allocations,
        "tracemalloc_peak_fields": peak / field_bytes,
        "peak_site": " -> ".join(site),
        **calls,
    }


def spball_chain(frame) -> list[str]:
    """file:line function of each spball function frame from the outermost to
    frame; a comprehension's or generator expression's frame (<genexpr>) is
    left out, its line being inside the function that holds it."""
    chain = []
    while frame is not None:
        code = frame.f_code
        if f"{os.sep}spball{os.sep}" in code.co_filename and not code.co_name.startswith("<"):
            chain.append(f"{Path(code.co_filename).name}:{frame.f_lineno} {code.co_name}")
        frame = frame.f_back
    return chain[::-1]


def count_faults(config) -> dict:
    from spball.runner import run_experiment

    rss_before = resident_mb()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_experiment(config)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"minflt": usage.ru_minflt - before, "rss_before_run_mb": rss_before,
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def resident_mb() -> float:
    """This process's resident set size, VmRSS, in MB (Linux /proc)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def child(src: str, workload: str, mode: str) -> None:
    sys.path.insert(0, src)
    from spball.runner import ExperimentConfig

    config = ExperimentConfig.from_dict(workload_config(workload))
    field_bytes = 8 * (config.grid_n - 1) ** 3
    out = count_allocations(config, field_bytes) if mode == "allocs" else count_faults(config)
    print(json.dumps(out))


def spawn(src: str, workload: str, mode: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--src", src, "--workload", workload, "--child", mode],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--child", choices=("allocs", "faults"))
    args = parser.parse_args()
    if args.child:
        child(args.src, args.workload, args.child)
        return
    result = spawn(args.src, args.workload, "allocs")
    runs = [spawn(args.src, args.workload, "faults") for _ in range(args.reps)]
    faults = [run["minflt"] for run in runs]
    result.update(
        minflt_median=statistics.median(faults), minflt_runs=faults,
        rss_before_run_mb=statistics.median(run["rss_before_run_mb"] for run in runs),
        maxrss_mb=statistics.median(run["maxrss_mb"] for run in runs),
    )
    print(json.dumps({"workload": args.workload, "src": args.src, **result}))


if __name__ == "__main__":
    main()
