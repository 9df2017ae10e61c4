"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job json>'

The job holds the ExperimentConfig keyword arguments, the output directory
(null for a set-up probe that only imports spball and builds the config) and
whether to trace. Prints one JSON line: the CLOCK_MONOTONIC time at which the
config was ready, and for a repetition the wall time of run_experiment, the
peak resident set size, the error if it raised, and the traced layers.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import spball.runner

    config = spball.runner.ExperimentConfig(**job["config"])
    out = {"ready": time.monotonic()}
    if job["out_dir"] is not None:
        if job["trace"]:
            import tracer as tracing  # this file's directory is sys.path[0]

            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            report = spball.runner.run_experiment(config, out_dir=job["out_dir"])
        except Exception as exc:  # run.py counts a raising run as failed
            report = None
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["solve_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if job["trace"] and report is not None:
            out["layers"], out["problems"] = tracing.layer_metrics(
                tracer, report.minimize_summary["iterations"]
            )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
