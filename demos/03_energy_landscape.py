"""The energy functional along a ray, its pieces, and its first variation.

Along t -> t*e1 the energy is an explicit polynomial in t: quadratic
kinetic term, quartic nonlocal coupling term, a power term of degree p+1,
and a linear forcing term. Watching the four terms makes the competition
between the convex and concave pieces visible, and a centered difference
confirms the first variation, read from the state's strong residual.
"""

import numpy as np

from spball import (
    ProblemSpec,
    ScalarField,
    build_grid,
    evaluate,
    first_eigenpair,
)
from spball.energy import energy

grid = build_grid(10)
e1, _ = first_eigenpair(grid)
spec = ProblemSpec(
    p=7.0,
    coupling=ScalarField(grid, np.ones(grid.shape)),
    forcing=0.05 * e1,
)

print(f"{'t':>6}  {'kinetic':>10}  {'coupling':>10}  {'power':>10}  {'forcing':>10}  {'total':>11}")
for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
    s = evaluate(t * e1, spec)
    kinetic, coupling, power, forcing = s.terms
    print(
        f"{t:>6.2f}  {kinetic:>10.5f}  {coupling:>10.6f}"
        f"  {power:>10.5f}  {forcing:>10.6f}  {energy(s):>11.6f}"
    )

u = 0.8 * e1
s = evaluate(u, spec)  # the field with its Laplacian, energy terms and gradient
kinetic, coupling, power, forcing = s.terms
# convex part: the kinetic term; smooth part: the rest, sign flipped
convex, smooth = kinetic, -coupling + power + forcing
print(f"\nsplit at t=0.8: convex={convex:.6f}, smooth={smooth:.6f}, "
      f"difference matches total: {abs((convex - smooth) - energy(s)):.2e}")

c = np.arange(1, grid.n) / grid.n  # the interior nodes i h
bump = c * (1 - c)
v = ScalarField(grid, bump[:, None, None] * bump[None, :, None] * bump[None, None, :])
# the strong residual -Delta_h u - rhs(u) is the energy's L2 gradient
dd = float(np.vdot(s.residual.values, v.values)) * grid.h**3
eps = 1e-5
e_plus = energy(evaluate(u + eps * v, spec))
e_minus = energy(evaluate(u - eps * v, spec))
fd = (e_plus - e_minus) / (2 * eps)
print(f"first variation: <residual, v> h^3={dd:.10f}, centered diff={fd:.10f}, "
      f"rel err={abs(fd - dd) / abs(dd):.2e}")
