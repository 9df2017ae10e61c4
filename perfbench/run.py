"""spball benchmark: time to a verified solution, with per-layer attribution.

Usage:
    python3 perfbench/run.py --workload solve-n32 --seed 3 --seconds 36 --trace 0

Each repetition runs in a fresh worker interpreter (perfbench/worker.py),
one at a time, with BLAS and OpenMP pinned to one thread. The worker imports
spball from ./src, builds an ExperimentConfig from the workload and the seed,
and calls spball.runner.run_experiment, the call under ``spball run``.

--trace 0 measures the end-to-end metrics: set-up probes, then repetitions
until --seconds is used (at least two). --trace 1 runs one untraced
repetition and at least two traced ones, whose tracer (perfbench/tracer.py)
gives the per-layer metrics.

Every repetition's report.json is reloaded with spball.runner.load_report and
must pass verification with the workload's reference energy; repetitions
must agree bit for bit, traced or not. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"

# Every workload uses coupling {"constant": 1}. The reference energies were
# recorded when the benchmark was defined. They do not depend on the seed,
# because the eigenfunction, not a random sample, sets both ball constants.
# BENCHMARK.json leaves out audit-n12: host speed swings move its medians by
# more than any allowed bound (see README.md).
WORKLOADS = {
    "solve-n32": {
        "config": {"grid_n": 32, "p": 7.0, "forcing": {"scaled_to_bound": 0.5}, "samples": 64},
        "energy": -0.3036293787379524,
    },
    "descent-n32": {
        "config": {
            "grid_n": 32,
            "p": 3.0,
            "forcing": {"scaled_to_bound": 1.0},
            "safety": 1.0,
            "samples": 1,
        },
        "energy": -11.481428750876248,
    },
    "audit-n12": {
        "config": {"grid_n": 12, "p": 7.0, "forcing": {"scaled_to_bound": 0.5}, "samples": 512},
        "energy": -0.3016467212738398,
    },
}
# loose enough for an exact Poisson solver or a tighter stopping rule,
# tight enough to reject a different minimizer
ENERGY_RTOL = 1e-6

MIN_REPS = 2  # repetitions (traced ones under --trace 1), so a run can compare them
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # the whole benchmark run must end within 180 s

# Per-layer values that repeat exactly for one workload, seed and commit;
# a traced run fails its check when two traced repetitions disagree on one.
DETERMINISTIC = (
    "poisson.solves",
    "poisson.phi_calls",
    "poisson.cg_iters",
    "poisson.iters_per_solve",
    "poisson.unknown_iters",
    "poisson.bytes_computed",
    "ball.solves",
    "sampling.fields",
    "minimize.solves",
    "minimize.iterations",
    "minimize.energy_evals",
    "minimize.backtracks",
    "minimize.accept_ratio",
    "energy.evals",
    "energy.gradient_evals",
    "verify.solves",
    "verify.phi_check_solves",
    "grid.w2n_norm.calls",
    "grid.h1_inner.calls",
)


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    def __init__(self, config: dict, deadline: float):
        self.config = config
        self.deadline = deadline
        self.env = dict(
            os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
        )
        self.reps = 0

    def spawn(self, out_dir: Path | None, trace: bool = False) -> dict:
        """Run one worker to completion; returns its record plus setup_s and wall_s."""
        job = {
            "config": self.config,
            "out_dir": None if out_dir is None else str(out_dir),
            "trace": trace,
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before a worker could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                capture_output=True, text=True, env=self.env, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from None
        wall = time.monotonic() - spawned
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup_s"] = record["ready"] - spawned
        record["wall_s"] = wall
        return record

    def repetition(self, trace: bool = False) -> dict:
        self.reps += 1
        out_dir = WORK / f"rep{self.reps}"
        out_dir.mkdir(parents=True)
        record = self.spawn(out_dir, trace)
        record["out_dir"] = out_dir
        log(
            f"rep {self.reps}{' traced' if trace else ''}: solve_s={record['solve_s']:.3f} "
            f"setup_s={record['setup_s']:.3f} {record.get('error', '')}"
        )
        return record


def check_outputs(records: list[dict], reference: float) -> tuple[int, list[str]]:
    """Verify each repetition's outputs; returns (failed count, problems)."""
    from spball.runner import load_report

    failed = 0
    problems: list[str] = []
    canonical = []
    for i, rec in enumerate(records, 1):
        if "error" in rec:
            failed += 1
            problems.append(f"rep {i} raised {rec['error']}")
            continue
        report = load_report(rec["out_dir"] / "report.json")
        if not report.verification.passed:
            failed += 1
            problems.append(f"rep {i} failed verification: {report.verification}")
            continue
        if abs(report.energy - reference) > ENERGY_RTOL * abs(reference):
            failed += 1
            problems.append(f"rep {i} energy {report.energy!r} != reference {reference!r}")
            continue
        rec["verified"] = True
        data = report.to_dict()
        del data["wall_time"]
        trace_csv = (rec["out_dir"] / "trace.csv").read_text()
        canonical.append(json.dumps(data, sort_keys=True) + trace_csv)
    if len(set(canonical)) > 1:
        problems.append("repetitions of one seed differ outside wall_time")
    return failed, problems


def more_reps(records: list[dict], start: float, seconds: float) -> bool:
    """True until MIN_REPS are done and one more would end after the budget."""
    if len(records) < MIN_REPS:
        return True
    return time.monotonic() - start + statistics.median(r["wall_s"] for r in records) <= seconds


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    start = time.monotonic()
    runner.spawn(None)  # warm-up: bytecode and file caches, as a returning user has them
    # set-up probes are spread between repetitions, so they do not share one
    # moment's machine load
    setups: list[float] = []
    records: list[dict] = []
    while more_reps(records, start, seconds):
        setups.append(runner.spawn(None)["setup_s"])
        records.append(runner.repetition())
    while len(setups) < SETUP_PROBES:
        setups.append(runner.spawn(None)["setup_s"])
    setups += [r["setup_s"] for r in records]
    values = {
        "solve_s": statistics.median(r["solve_s"] for r in records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    log(f"solve_s and peak_rss_mb: median of {len(records)} reps; setup_s: median of {len(setups)}")
    return records, values


def measure_layers(runner: Runner, seconds: float) -> tuple[list[dict], dict, list[str]]:
    start = time.monotonic()
    runner.spawn(None)  # warm-up
    base = runner.repetition()
    traced: list[dict] = []
    while more_reps(traced, start, seconds):
        traced.append(runner.repetition(trace=True))
    problems = []
    layers = [r["layers"] for r in traced if "layers" in r]
    for r in traced:
        problems += r.get("problems", [])
    values = {}
    if layers:
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        for name in DETERMINISTIC:
            values[name] = layers[0][name]
            seen = {layer[name] for layer in layers}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced repetitions: {sorted(seen)}")
    values["trace.overhead_s"] = statistics.median(r["solve_s"] for r in traced) - base["solve_s"]
    log(f"per-layer values: median of {len(layers)} traced reps; 1 untraced rep")
    return [base, *traced], values, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "spball" / "__init__.py").is_file():
        log(f"spball sources not found under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    config = {"coupling": {"constant": 1}, **workload["config"], "seed": args.seed}
    runner = Runner(config, deadline)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.trace:
            records, values, problems = measure_layers(runner, args.seconds)
            units = metric_units("per_layer")
        else:
            records, values, problems = *measure_end_to_end(runner, args.seconds), []
            units = metric_units("end_to_end")
        failed, output_problems = check_outputs(records, workload["energy"])
    except BenchmarkError as exc:
        log(f"benchmark error: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    problems += output_problems
    if not args.trace:
        values["verified_frac"] = sum(r.get("verified", False) for r in records) / len(records)

    missing = set(units) - set(values)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        if name in values:
            print(f"{args.workload:12s} {name:26s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
