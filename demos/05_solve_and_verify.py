"""End to end: minimize the energy in the ball, then verify the solution.

Mirrors what `spball run --config ...` does, but through the library so the
intermediate objects are visible. The forcing is scaled to sit exactly at
the admissible bound, the hardest case the theory still covers. Without an
out_dir, run_experiment writes no report.json or trace.csv.
"""

from spball.ball import BALL_RTOL
from spball.runner import ExperimentConfig, run_experiment

config = ExperimentConfig.from_dict(
    {
        "grid_n": 12,
        "p": 7.0,
        "coupling": {"constant": 1.0},
        "forcing": {"scaled_to_bound": 1.0},
    }
)

report = run_experiment(config)

print(f"ball radius         = {report.ball.radius:.6f}")
print(f"forcing bound       = {report.ball.forcing_bound:.6f}")
print(f"energy at minimizer = {report.energy:.8f}  (negative: beats u = 0)")
summary = report.minimize_summary
# on the sphere of the ball when its norm is the radius, to the ball's one slack
radius = report.ball.radius
on_boundary = abs(summary["minimizer_w2n"] - radius) <= BALL_RTOL * radius
print(f"descent iterations  = {summary['iterations']}, "
      f"stop_reason={summary['stop_reason']}, on_boundary={on_boundary}")
print(f"minimizer norms     : W2N={summary['minimizer_w2n']:.6f}, "
      f"L2={summary['minimizer_l2']:.6f}")

v = report.verification
print("\nverification")
print(f"  fixed point residual (rel) = {v.fixed_point_rel_residual:.3e}")
print(f"  equation residual    (rel) = {v.pde_rel_residual:.3e}")
print(f"  passed                     = {v.passed}")
print(f"  failed checks              = {', '.join(v.failed_checks) or 'none'}")

for stage, seconds in report.wall_time.items():
    print(f"  {stage:<12} {seconds:.3f}s")
