"""The benchmark's tracer still understands the package: a traced run passes
the tracer's own self-checks (stage solves sum to the total, which equals
the count of PoissonSolution objects built), and its line-search metrics
stay meaningful, in a fresh interpreter as the benchmark runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spball.runner
import tracer as tracing

t = tracing.Tracer()
tracing.install(t)
config = spball.runner.ExperimentConfig.from_dict({
    "grid_n": 8, "p": 7.0, "coupling": {"constant": 1},
    "forcing": {"scaled_to_bound": 0.5},
})
report = spball.runner.run_experiment(config, out_dir=sys.argv[3])
metrics, problems = tracing.layer_metrics(t, report.minimize_summary["iterations"])
print(json.dumps({"passed": report.verification.passed, "problems": problems,
                  "metrics": metrics,
                  "ball_calls": t.edge_calls["runner.run_experiment", "ball.estimate_constants"]}))
"""


def test_traced_run_passes_the_tracer_self_checks(tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "out")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert out["passed"]
    assert out["problems"] == []
    metrics = out["metrics"]
    # the run calls the stage the tracer times as the ball, once, so its
    # time is the ball's and not the runner's own
    assert out["ball_calls"] == 1
    assert metrics["ball.solves"] == 1
    assert metrics["verify.solves"] == 0
    assert metrics["poisson.solves"] == 1 + metrics["minimize.solves"]
    # the initial guess scales the ball's phi_e1, so the one e1 solve stays
    # under the ball stage; the descent pays the start's gradient and two
    # solves per trial, its potential and its gradient
    assert metrics["minimize.solves"] == 1 + 2 * metrics["minimize.iterations"]
    # every state forms its gradient through gradient_field, once: the
    # start's and one per accepted trial
    assert metrics["energy.gradient_evals"] == 1 + metrics["minimize.iterations"]
    # the line-search metrics count calls to energy.energy under minimize;
    # a descent that read the held terms directly would drive backtracks negative
    assert metrics["minimize.backtracks"] >= 0
    assert metrics["minimize.energy_evals"] == metrics["energy.evals"]
    # every H1 norm of a run is a pairing with an array it holds: the ball
    # pairs e1 with its stencil and with c phi_e1 e1
    assert metrics["grid.h1_inner.calls"] == 0
