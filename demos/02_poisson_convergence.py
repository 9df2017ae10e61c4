"""Convergence of the zero-boundary Poisson solve on the first mode.

The forcing 3 pi^2 e1, with e1 = sin(pi x) sin(pi y) sin(pi z), has the
continuum solution e1. Since e1 is an exact eigenvector of the discrete
operator, the solve returns (3 pi^2 / lambda_h) e1, so the error is the
first eigenvalue's discretization error |3 pi^2 / lambda_h - 1|, and
halving h should cut it by about four. It checks the solve on that one mode
only. The same column is what the `study` CLI subcommand tabulates, here
driven directly through the library.
"""

import math
import time

from spball import manufactured_poisson_error

print(f"{'n':>4}  {'rel L2 error':>14}  {'order':>6}  {'seconds':>8}")
previous = None
for n in (4, 8, 16, 32):
    t0 = time.perf_counter()
    err = manufactured_poisson_error(n)
    dt = time.perf_counter() - t0
    order = "" if previous is None else f"{math.log(previous / err) / math.log(2):.3f}"
    print(f"{n:>4}  {err:>14.6e}  {order:>6}  {dt:>8.3f}")
    previous = err
