"""Retracted gradient descent for the energy on the constraint ball.

Descent direction is the Sobolev gradient u - T(u). Steps that leave the
ball are pulled back by radial retraction; acceptance demands strict energy
decrease with backtracking. The iteration stops on a small displacement, a
negligible relative energy drop, or the iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import BALL_NORM_SLACK, BallSpec
from .energy import (
    FieldState,
    ProblemSpec,
    _energy_terms,
    energy,
    evaluate,
    gradient_field,
    restricted_energy,
)
from .errors import ForcingTooLargeError, InitializationFailureError
from .grid import ScalarField, first_eigenpair, grad_l2_norm, lp_norm, w2n_norm

_MIN_STEP_FACTOR = 1e-18
_INITIAL_T_GRID = 400


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 5000
    grad_tol: float = 1e-8  # displacement threshold in the H1 seminorm
    energy_tol: float = 1e-12  # relative energy-decrease threshold
    backtrack_factor: float = 0.5
    initial_step: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if not self.energy_tol > 0.0:
            raise ValueError(f"energy_tol must be positive, got {self.energy_tol}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor}"
            )
        if not self.initial_step > 0.0:
            raise ValueError(f"initial_step must be positive, got {self.initial_step}")


@dataclass(frozen=True)
class MinimizeResult:
    """Minimizer, its energy, and the full iteration trace.

    trace rows are (iteration, energy, accepted step, H1 displacement);
    row 0 records the starting point with step and displacement zero.
    """

    minimizer: ScalarField
    energy: float
    iterations: int
    trace: tuple[tuple[int, float, float, float], ...]
    converged: bool
    on_boundary: bool


def retract_to_ball(u: ScalarField, radius: float) -> ScalarField:
    """Radial retraction onto the closed ball of the w2n norm."""
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    w = w2n_norm(u)
    if w <= radius:
        return u
    return (radius / w) * u


def initial_guess(spec: ProblemSpec, radius: float) -> FieldState:
    """Evaluated starting point with certified negative energy inside the ball.

    Scales the first eigenfunction to the ball boundary, then minimizes the
    exact quartic-plus-power polynomial t -> E(t e) over a log-spaced grid of
    t in [0, 1] (one potential solve for all t). Ties prefer the smallest t.
    The winning t is re-checked with a real energy evaluation, whose state is
    returned; on roundoff disagreement the remaining candidates are tried in
    polynomial order.
    """
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    e1, _ = first_eigenpair(spec.grid)
    e = (radius / w2n_norm(e1)) * e1

    quad, quart, power, lin = _energy_terms(evaluate(e, spec), spec)

    ts = np.concatenate(([0.0], np.geomspace(1e-8, 1.0, _INITIAL_T_GRID)))
    poly = quad * ts**2 + quart * ts**4 - power * ts ** (spec.p + 1.0) - lin * ts
    # stable argsort keeps the smallest t first among equal values
    for idx in np.argsort(poly, kind="stable"):
        t = float(ts[idx])
        if poly[idx] >= 0.0:
            break
        candidate = evaluate(t * e, spec)
        if restricted_energy(candidate, radius, spec) < 0.0:
            return candidate
    raise InitializationFailureError(
        "no scaling of the eigenfunction yields negative energy; "
        "the forcing may be too small to register above rounding error"
    )


def minimize(
    spec: ProblemSpec,
    ball: BallSpec,
    opts: MinimizeOptions | None = None,
) -> MinimizeResult:
    """Minimize the energy over the constraint ball by retracted descent.

    Requires the forcing to respect the admissible bound. A zero forcing
    (diagnostic mode) starts and ends at the zero field with zero energy.
    Every iterate stays in the ball; recorded energies are strictly
    decreasing. The accepted trial's state carries into the next gradient.
    """
    if opts is None:
        opts = MinimizeOptions()
    forcing_norm = lp_norm(spec.forcing, 3)
    if forcing_norm > ball.forcing_bound * (1.0 + BALL_NORM_SLACK):
        raise ForcingTooLargeError(forcing_norm, ball.forcing_bound)

    if float(np.abs(spec.forcing.values).max()) == 0.0:
        s = evaluate(ScalarField.zeros(spec.grid), spec)
    else:
        s = initial_guess(spec, ball.radius)

    current = energy(s, spec).total
    trace = [(0, current, 0.0, 0.0)]
    iterations = 0
    converged = False

    while iterations < opts.max_iters:
        g = gradient_field(s)
        if grad_l2_norm(g) == 0.0:
            converged = True
            break

        step = opts.initial_step
        accepted = None
        while step >= _MIN_STEP_FACTOR * opts.initial_step:
            candidate = evaluate(retract_to_ball(s.u - step * g, ball.radius), spec)
            cand_energy = energy(candidate, spec).total
            if cand_energy < current:
                accepted = (candidate, cand_energy, step)
                break
            step *= opts.backtrack_factor
        if accepted is None:
            # no strict decrease at any step: numerically stationary
            converged = True
            break

        candidate, cand_energy, step = accepted
        displacement = grad_l2_norm(candidate.u - s.u)
        drop = current - cand_energy
        s, current = candidate, cand_energy
        iterations += 1
        trace.append((iterations, current, step, displacement))

        if displacement < opts.grad_tol:
            converged = True
            break
        if drop < opts.energy_tol * max(abs(current), 1e-300):
            converged = True
            break

    return MinimizeResult(
        minimizer=s.u,
        energy=current,
        iterations=iterations,
        trace=tuple(trace),
        converged=converged,
        on_boundary=abs(w2n_norm(s.u) - ball.radius) <= 1e-8,
    )
