"""Anderson-mixed retracted descent for the energy on the constraint ball.

The gradient g = u - T(u) is the Sobolev gradient, so a step of length 1
is the fixed-point iteration u <- T(u) of the auxiliary map. Each iteration
first tries the depth-3 Anderson (type-II) mixture of that iteration
(Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011): with the differences
dT, dg of T and g between the last iterates and the coefficients gamma
minimizing the H1 norm of g - dg gamma, the trial is T(u) - dT gamma. The
differences come from gradients already computed, so the trial costs no
extra solve, and the history's H1 pairings read -Delta_h g = lap - rhs, the
strong residual each state holds, so they cost no stencil either. The
starting point is a multiple t e of e = (r / ||-Delta_h e1||_3) e1. Its
potential scales phi_e1, the one the ball constants solved, and its
Laplacian scales lambda_h e, since -Delta_h e1 = lambda_h e1, so the
initial guess costs no solve and no stencil. A trial is evaluated once
(one solve, one stencil); one that leaves the ball is pulled back by radial
retraction of its state, t u with t = r / ||-Delta_h u||_3, whose potential
is t^2 phi_u, so the retraction costs a stencil and no solve. If the mixed
trial does not strictly decrease the energy, the history is cleared and the
plain step u - step g backtracks from 1 by halves until the energy strictly
decreases. The one convergence test is verify's: the descent stops
converged (fixed_point) when fixed_point_residual of g and pde_residual
pass FP_THRESHOLD and PDE_THRESHOLD, and otherwise when no step lowers the
energy (no_decrease) or the iteration budget is spent (budget). Both
residuals read the state's held strong residual, and every H1 norm here
is a pairing with a held Laplacian, so the descent runs no gradient pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import BALL_NORM_SLACK, BallSpec
from .energy import (
    FieldState,
    ProblemSpec,
    _state,
    energy,
    evaluate,
    gradient_field,
    restricted_energy,
)
from .errors import ForcingTooLargeError, InitializationFailureError
from .grid import ScalarField, apply_laplacian, first_eigenpair, lp_norm
from .verify import FP_THRESHOLD, PDE_THRESHOLD, fixed_point_residual, pde_residual

_INITIAL_STEP = 1.0
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-18
_INITIAL_T_GRID = 400
_MIXING_DEPTH = 3  # Anderson history length m
_BOUNDARY_RTOL = 1e-8  # on_boundary: ||-Delta_h u||_3 within this fraction of the radius


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 5000

    def __post_init__(self):
        if type(self.max_iters) is not int or self.max_iters < 1:  # a bool is no budget
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class MinimizeResult:
    """Minimizer, its energy, and the full iteration trace.

    state is the minimizer's FieldState and gradient its g = u - T(u), both
    from the last stop test; verify takes them as they are. trace rows are
    (iteration, energy, accepted step, H1 displacement); row 0 records the
    starting point with step and displacement zero, and an accepted mixed
    trial records step 1. stop_reason is one of fixed_point, no_decrease and
    budget; converged means fixed_point, so a converged minimizer passes
    verify's fixed_point and pde gates. mixed_steps counts the accepted
    mixed trials. on_boundary means the minimizer's ball norm is within
    1e-8 of the radius relative to the radius, so it reads the same on a
    ball of any size.
    """

    state: FieldState
    gradient: ScalarField
    energy: float
    iterations: int
    trace: tuple[tuple[int, float, float, float], ...]
    converged: bool
    on_boundary: bool
    stop_reason: str
    mixed_steps: int

    @property
    def minimizer(self) -> ScalarField:
        return self.state.u


def retract_to_ball(s: FieldState, radius: float, spec: ProblemSpec) -> FieldState:
    """Radial retraction of an evaluated field onto the closed ball of the w2n
    norm: t u with t = radius / ||-Delta_h u||_3, whose potential is t^2 phi_u."""
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    w = s.w2n
    if w <= radius:
        return s
    t = radius / w
    u = t * s.u
    return _state(u, (t * t) * s.phi, apply_laplacian(u), spec)


def initial_guess(spec: ProblemSpec, radius: float, phi_e1: ScalarField) -> FieldState:
    """Evaluated starting point with certified negative energy inside the ball.

    Scales the first eigenfunction to the ball boundary, then minimizes the
    exact quartic-plus-power polynomial t -> E(t e) over a log-spaced grid of
    t in [0, 1]. Ties prefer the smallest t. The winning t is re-checked with
    a real energy evaluation, whose state is returned; on roundoff
    disagreement the remaining candidates are tried in polynomial order.
    The potential is quadratic, so with e = s e1 the potential of t e is
    t^2 s^2 phi_e1: phi_e1, the potential make_ball solved for the first
    eigenfunction, serves every t, and the initial guess costs no solve.
    It runs no stencil either: -Delta_h e1 = lambda_h e1 gives
    ||-Delta_h e1||_3 = lambda_h ||e1||_3, -Delta_h e = lambda_h e and
    -Delta_h (t e) = t lambda_h e, all to rounding.
    """
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    spec.check_field(phi_e1)
    e1, lam = first_eigenpair(spec.grid)
    scale = radius / (lam * lp_norm(e1, 3))
    e = scale * e1

    base = _state(e, (scale * scale) * phi_e1, lam * e, spec)
    quad, quart, power, lin = base.terms

    ts = np.concatenate(([0.0], np.geomspace(1e-8, 1.0, _INITIAL_T_GRID)))
    poly = quad * ts**2 + quart * ts**4 - power * ts ** (spec.p + 1.0) - lin * ts
    # stable argsort keeps the smallest t first among equal values
    for idx in np.argsort(poly, kind="stable"):
        t = float(ts[idx])
        if poly[idx] >= 0.0:
            break
        candidate = _state(t * e, (t * t) * base.phi, t * base.lap, spec)
        if restricted_energy(candidate, radius) < 0.0:
            return candidate
    raise InitializationFailureError(
        "no scaling of the eigenfunction yields negative energy; "
        "the forcing may be too small to register above rounding error"
    )


class _MixingHistory:
    """Depth-m Anderson (type-II) history of the auxiliary map T, as raw arrays.

    For the last m steps it holds -Delta_h dg and dT, where dg and dT are the
    changes of g = u - T(u) and of T(u) between consecutive iterates, and the
    Gram matrix of the dg in the discrete H1 pairing, <-Delta_h a, b> h^3
    (h1_inner by summation by parts; the common h^3 cancels in gamma).
    -Delta_h dg is the change of -Delta_h g, which each push is handed.
    """

    def __init__(self):
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []  # (-Delta_h dg, dT)
        self.gram = np.zeros((0, 0))
        # (g, u, -Delta_h g) of the last iterate
        self.last: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def push(self, g: np.ndarray, u: np.ndarray, lap_g: np.ndarray) -> None:
        """Record the iterate u with gradient g = u - T(u) and lap_g = -Delta_h g,
        the strong residual -Delta_h u - rhs(u), since -Delta_h T(u) = rhs(u)."""
        if self.last is not None:
            if len(self.steps) == _MIXING_DEPTH:
                del self.steps[0]
                self.gram = self.gram[1:, 1:]
            dg = g - self.last[0]
            ldg = lap_g - self.last[2]
            k = len(self.steps)
            gram = np.empty((k + 1, k + 1))
            gram[:k, :k] = self.gram
            gram[k, :k] = gram[:k, k] = [np.vdot(ldg_i, dg) for ldg_i, _ in self.steps]
            gram[k, k] = np.vdot(ldg, dg)
            dt = u - self.last[1]
            dt -= dg
            self.steps.append((ldg, dt))
            self.gram = gram
        self.last = (g, u, lap_g)

    def clear(self) -> None:
        """Forget the steps; the last iterate stays as the base of the next one."""
        self.steps.clear()
        self.gram = np.zeros((0, 0))

    def mixed(self, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """T(u) - dT gamma with gamma = argmin ||g - dg gamma||_H1; needs a step."""
        rhs = np.array([np.vdot(ldg_i, g) for ldg_i, _ in self.steps])
        gamma = np.linalg.lstsq(self.gram, rhs, rcond=None)[0]
        out = u - g
        for coeff, (_, dt) in zip(gamma, self.steps):
            out -= coeff * dt
        return out


def _backtrack(s: FieldState, g: ScalarField, current: float, spec: ProblemSpec,
               ball: BallSpec):
    """The first plain step u - step g, from _INITIAL_STEP down by _BACKTRACK_FACTOR,
    whose retracted trial strictly lowers the energy; None when none does."""
    step = _INITIAL_STEP
    while step >= _MIN_STEP:
        candidate = retract_to_ball(evaluate(s.u - step * g, spec), ball.radius, spec)
        cand_energy = energy(candidate).total
        if cand_energy < current:
            return candidate, cand_energy, step
        step *= _BACKTRACK_FACTOR
    return None


def minimize(
    spec: ProblemSpec,
    ball: BallSpec,
    phi_e1: ScalarField,
    opts: MinimizeOptions | None = None,
) -> MinimizeResult:
    """Minimize the energy over the constraint ball by Anderson-mixed retracted descent.

    phi_e1 is the first eigenfunction's potential that make_ball returns with
    the ball; the initial guess scales it. Requires the forcing to respect
    the admissible bound. A zero forcing (diagnostic mode) starts and ends at
    the zero field with zero energy.
    Every iterate stays in the ball; recorded energies are strictly
    decreasing. The accepted trial's state carries into the next gradient.
    """
    if opts is None:
        opts = MinimizeOptions()
    if spec.forcing_norm > ball.forcing_bound * (1.0 + BALL_NORM_SLACK):
        raise ForcingTooLargeError(spec.forcing_norm, ball.forcing_bound)

    if float(np.abs(spec.forcing.values).max()) == 0.0:
        s = evaluate(ScalarField.zeros(spec.grid), spec)
    else:
        s = initial_guess(spec, ball.radius, phi_e1)

    current = energy(s).total
    trace = [(0, current, 0.0, 0.0)]
    iterations = 0
    mixed_steps = 0
    history = _MixingHistory()

    while True:
        g = gradient_field(s)
        if fixed_point_residual(s, g) <= FP_THRESHOLD and pde_residual(s, spec) <= PDE_THRESHOLD:
            stop_reason = "fixed_point"
            break
        if iterations == opts.max_iters:
            stop_reason = "budget"
            break
        history.push(g.values, s.u.values, s.residual.values)

        accepted = None
        if history.steps:
            trial = ScalarField._own(spec.grid, history.mixed(g.values, s.u.values))
            candidate = retract_to_ball(evaluate(trial, spec), ball.radius, spec)
            cand_energy = energy(candidate).total
            if cand_energy < current:
                accepted = (candidate, cand_energy, 1.0)
                mixed_steps += 1
            else:
                history.clear()
        if accepted is None:
            accepted = _backtrack(s, g, current, spec, ball)
        if accepted is None:
            # no step strictly lowers the energy, yet the residual gates fail
            stop_reason = "no_decrease"
            break

        candidate, cand_energy, step = accepted
        # ||grad(u' - u)||^2 = <-Delta_h (u' - u), u' - u> h^3, from the held Laplacians
        pair = np.vdot(candidate.lap.values - s.lap.values, candidate.u.values - s.u.values)
        displacement = math.sqrt(max(float(pair), 0.0) * spec.grid.h ** 3)
        s, current = candidate, cand_energy
        iterations += 1
        trace.append((iterations, current, step, displacement))

    return MinimizeResult(
        state=s,
        gradient=g,
        energy=current,
        iterations=iterations,
        trace=tuple(trace),
        converged=stop_reason == "fixed_point",
        on_boundary=abs(s.w2n - ball.radius) <= _BOUNDARY_RTOL * ball.radius,
        stop_reason=stop_reason,
        mixed_steps=mixed_steps,
    )
