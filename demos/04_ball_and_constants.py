"""Building the certified ball: constants, radius, and the forcing budget.

The constrained minimization runs inside a ball whose radius is chosen so
that a trapping inequality holds. This script takes the two embedding
constants and the potential's bound constant from the first eigenfunction,
solves for the largest certified radius, and then spot-checks the resulting
residual bound on random fields.
"""

import numpy as np

from spball import (
    ProblemSpec,
    ScalarField,
    build_grid,
    estimate_constants,
    evaluate,
)
from spball.sampling import smoothed_random_fields

grid = build_grid(8)
spec = ProblemSpec(
    p=7.0,
    coupling=ScalarField(grid, np.ones(grid.shape)),
    forcing=ScalarField(grid, np.ones(grid.shape)),
)

# the first eigenfunction e1 = s (x) s (x) s of the coupling's grid sets all
# three constants, and they set the radius; the FirstMode returned with the
# ball holds e1 with the numbers taken from it
ball, mode = estimate_constants(spec.p, spec.coupling, safety=2.0)
print(f"coupling constant (safety 2): {ball.coupling_constant:.6e}")
print(f"power constant    (safety 2): {ball.power_constant:.6e}")
print(f"potential constant (factor 2): {ball.potential_constant:.6e}")
print(f"e1: lambda_h = {mode.lam:.6f}, ||e1||_3 = {mode.norm:.6f}")
print(f"certified radius:             {ball.radius:.6f}")
print(f"forcing bound (radius / 2):   {ball.forcing_bound:.6f}")
check = ball.coupling_constant * ball.radius**3 + ball.power_constant * ball.radius**ball.p
print(f"defining inequality: {check:.6f} <= {ball.radius / 2:.6f}")

# every field in the ball should satisfy the residual bound with room:
# ||rhs(u)||_3 <= C_c r^3 + C_p r^p + ||f||_3. Random fields are rescaled
# to random fractions of the radius by the ball norm their state holds, and
# ||rhs(u)||_3 is the state's rhs_norm
bound = (
    ball.coupling_constant * ball.radius**3
    + ball.power_constant * ball.radius**ball.p
    + spec.forcing_norm
)
fractions = np.random.default_rng(99).uniform(0.05, 1.0, size=25)
worst = 0.0
for frac, u in zip(fractions, smoothed_random_fields(grid, 25, seed=99)):
    u = (frac * ball.radius / evaluate(u, spec).w2n) * u
    s = evaluate(u, spec)
    assert ball.contains(s.w2n)
    lhs = s.rhs_norm
    assert lhs <= bound
    worst = max(worst, lhs / bound)
print(f"residual bound over 25 random fields: worst lhs/rhs = {worst:.3f}")
