"""Anderson-mixed retracted descent for the energy on the constraint ball.

The gradient g = u - T(u) is the Sobolev gradient, so a step of length 1
is the fixed-point iteration u <- T(u) of the auxiliary map. Each iteration
first tries the depth-3 Anderson (type-II) mixture of that iteration
(Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011), built from gradients
already computed, so the trial costs no extra solve (_MixingHistory). A
trial that leaves the ball is pulled back onto it by radial retraction
(evaluate). If the mixed trial does not strictly decrease the energy, the
history is cleared and the plain step u - step g backtracks from 1 by halves
until the energy strictly decreases.

The descent starts at the best multiple of e1 on the ball, or at u = 0
(initial_guess). Its one stop test is verify's: it stops with stop_reason
fixed_point when fixed_point_residual and pde_residual pass FP_THRESHOLD and
PDE_THRESHOLD, and otherwise when no step lowers the energy (no_decrease) or
the iteration budget is spent (budget); verify alone says whether the result
is a solution. Every H1 norm here is a pairing with a Laplacian the states
hold, so the descent runs no gradient pass and no stencil but its trials'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import BallSpec, FirstMode
from .energy import FieldState, ProblemSpec, _state, energy, evaluate
from .grid import ScalarField, lp_norm
from .verify import FP_THRESHOLD, PDE_THRESHOLD, fixed_point_residual, pde_residual

_INITIAL_STEP = 1.0
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-12
_INITIAL_T_GRID = 400
_MIXING_DEPTH = 3  # Anderson history length m
MAX_ITERS = 5000  # the iteration budget


@dataclass(frozen=True)
class MinimizeResult:
    """Minimizer and the full iteration trace.

    state is the minimizer's FieldState, gradient included, from the last
    stop test; verify takes it as it is. trace rows are
    (iteration, energy, accepted step, fixed_point_residual), one per stop
    test; row 0 records the starting point with step zero, and its residual
    is inf at a zero start with f nonzero, and an accepted mixed trial
    records step 1. The last row is the minimizer's, so energy and
    iterations are read from it. stop_reason is one of fixed_point,
    no_decrease and budget; a fixed_point stop passes verify's fixed_point
    and pde gates, and verify alone says whether the minimizer is a
    solution. mixed_steps counts the accepted mixed trials.
    """

    state: FieldState
    trace: tuple[tuple[int, float, float, float], ...]
    stop_reason: str
    mixed_steps: int

    @property
    def minimizer(self) -> ScalarField:
        return self.state.u

    @property
    def energy(self) -> float:
        return self.trace[-1][1]

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def _start_terms(
    spec: ProblemSpec, radius: float, mode: FirstMode
) -> tuple[float, tuple[float, float, float, float]]:
    """(scale, terms): e = scale e1 lies on the ball boundary, and terms are
    its four energy terms, the coefficients of t -> E(t e).

    Each is one number read from the FirstMode, with no state and no array
    formed: 1/2 ||grad e1||^2 scale^2, 1/4 ||grad phi_e1||^2 scale^4, the
    power term and <f, e1> h^3 scale. e1 = s (x) s (x) s makes the power
    term separable, mode.power_sum(1/scale, p+1)^3 / (p+1), a pass over one
    axis.
    """
    scale = radius / (mode.lam * mode.norm)
    q = spec.p + 1.0
    axis = mode.power_sum(1.0 / scale, q)
    terms = (
        0.5 * (scale * scale) * mode.grad_sq,
        0.25 * mode.phi_grad_sq * scale**4,
        axis * axis * axis / q,
        float(np.vdot(spec.forcing.values, mode.e1.values)) * spec.grid.h ** 3 * scale,
    )
    return scale, terms


def initial_guess(spec: ProblemSpec, ball: BallSpec, mode: FirstMode) -> FieldState:
    """Evaluated starting point inside the ball: a multiple of e1 with certified
    negative energy, or else the zero field.

    Scales the first eigenfunction to the ball boundary, e = scale e1, negated
    when <f, e1> < 0 (only the forcing term is odd in e), then minimizes the
    exact quartic-plus-power polynomial t -> E(t e) over a log-spaced grid of
    t in [0, 1]. Ties prefer the smallest t. Its four coefficients are
    numbers read from the FirstMode (_start_terms), so no state of e is
    formed. The one winning t is re-checked with a real state, which is
    returned when the ball contains it and its energy is negative too.
    The potential is quadratic, so the potential of t e is
    t^2 (scale^2 phi_e1): phi_e1, the potential estimate_constants solved
    for the first eigenfunction, serves every t, and the initial guess's one
    solve is its state's gradient. It runs no stencil: -Delta_h e1 =
    lambda_h e1 gives ||-Delta_h e1||_3 = lambda_h ||e1||_3 and
    -Delta_h (t e) = t (lambda_h e), to rounding.

    The zero field's state is returned instead, with no search when
    <f, e1> = 0 (a zero forcing included), and when the winning t has no
    negative energy, polynomial or evaluated, as for a forcing too small to
    register above rounding. From u = 0 with f nonzero a small enough plain
    step lowers the energy, since the first variation in the direction
    -g = (-Delta_h)^-1 f is -<f, (-Delta_h)^-1 f> h^3 < 0, so the descent can
    start there.
    """
    spec.coupling._check_same_grid(mode.e1)
    scale, (quad, quart, power, lin) = _start_terms(spec, ball.radius, mode)
    if lin == 0.0:
        return evaluate(ScalarField.zeros(spec.grid), spec)

    ts = np.concatenate(([0.0], np.geomspace(1e-8, 1.0, _INITIAL_T_GRID)))
    # the other three terms are even in e, so the better sign makes lin positive
    poly = quad * ts**2 + quart * ts**4 - power * ts ** (spec.p + 1.0) - abs(lin) * ts
    idx = int(np.argmin(poly))  # the first minimum, so the smallest t among ties
    t, best = float(ts[idx]), float(poly[idx])
    del ts, poly  # freed before the candidate's gradient solve
    if best < 0.0:
        # (t e, t^2 (scale^2 phi_e1), t (lambda_h e)), each product as it
        # would be formed from e's own state
        u = mode.e1.values * scale
        if lin < 0.0:
            np.negative(u, out=u)
        lap = u * mode.lam
        lap *= t
        u *= t
        phi = mode.phi.values * (scale * scale)
        phi *= t * t
        lap = ScalarField._own(spec.grid, lap)
        candidate = _state(ScalarField._own(spec.grid, u), phi, lap, lp_norm(lap, 3.0), spec)
        if ball.contains(candidate.w2n) and energy(candidate) < 0.0:
            return candidate
    return evaluate(ScalarField.zeros(spec.grid), spec)


def _mixing_weights(gram: np.ndarray, rhs: list[float]) -> list[float] | None:
    """gamma with gram gamma = rhs, the normal equations of the H1 least-squares
    problem, by Gaussian elimination with partial pivoting on Python floats:
    the symmetric positive definite Gram matrix is at most 3 x 3, too small
    to be worth a LAPACK call. None on an exactly zero pivot, where LAPACK's
    dgesv would report the matrix singular, or when gamma is not finite."""
    k = len(rhs)
    rows = [row + [float(b)] for row, b in zip(gram.tolist(), rhs)]
    for col in range(k):
        top = max(range(col, k), key=lambda r: abs(rows[r][col]))
        rows[col], rows[top] = rows[top], rows[col]
        pivot = rows[col]
        if pivot[col] == 0.0:
            return None
        for row in rows[col + 1:]:
            factor = row[col] / pivot[col]
            for c in range(col, k + 1):
                row[c] -= factor * pivot[c]
    gamma = [0.0] * k
    for r in reversed(range(k)):
        row = rows[r]
        gamma[r] = (row[k] - sum(row[c] * gamma[c] for c in range(r + 1, k))) / row[r]
    return gamma if all(math.isfinite(x) for x in gamma) else None


class _MixingHistory:
    """Depth-m Anderson (type-II) history of the auxiliary map T, as raw arrays.

    For the last m steps it holds -Delta_h dg and dT, where dg and dT are the
    changes of g = u - T(u) and of T(u) between consecutive iterates, and the
    Gram matrix of the dg in the discrete H1 pairing, <-Delta_h a, b> h^3
    (the forward-difference gradient pairing, by summation by parts; the
    common h^3 cancels in gamma).
    -Delta_h dg is the change of -Delta_h g, which each push is handed.
    Each array lives until its last read: push drops each of the last
    iterate's arrays as soon as its difference is formed, and mixed, once it
    has formed a mixture from a full window, drops the oldest step, which
    the next push would drop and a rejected mixture would clear. The steps
    and the Gram matrix are the same bits either way.
    """

    def __init__(self):
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []  # (-Delta_h dg, dT)
        self.gram = np.zeros((0, 0))
        self.last: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (g, u, -Delta_h g)

    def push(self, g: np.ndarray, u: np.ndarray, lap_g: np.ndarray) -> None:
        """Record the iterate u with gradient g = u - T(u) and lap_g = -Delta_h g,
        the strong residual -Delta_h u - rhs(u), since -Delta_h T(u) = rhs(u).
        Past the first iterate, dT = d - dg is formed in the array of the
        step d = u - u_last."""
        if self.last is not None:
            if len(self.steps) == _MIXING_DEPTH:
                self._drop_oldest()
            last_g, last_u, last_lap = self.last
            self.last = None
            dg = g - last_g
            del last_g
            ldg = lap_g - last_lap
            del last_lap
            d = u - last_u
            del last_u
            k = len(self.steps)
            gram = np.empty((k + 1, k + 1))
            gram[:k, :k] = self.gram
            gram[k, :k] = gram[:k, k] = [np.vdot(ldg_i, dg) for ldg_i, _ in self.steps]
            gram[k, k] = np.vdot(ldg, dg)
            d -= dg
            self.steps.append((ldg, d))
            self.gram = gram
        self.last = (g, u, lap_g)

    def _drop_oldest(self) -> None:
        del self.steps[0]
        self.gram = self.gram[1:, 1:]

    def clear(self) -> None:
        """Forget the steps; the last iterate stays as the base of the next one."""
        self.steps.clear()
        self.gram = np.zeros((0, 0))

    def mixed(self, g: np.ndarray, u: np.ndarray) -> np.ndarray | None:
        """T(u) - dT gamma with gamma = argmin ||g - dg gamma||_H1; needs a step.

        None, with the steps cleared, when _mixing_weights finds no gamma.
        Each coeff dT is formed in one scratch array, the same bits as a
        product per step. A full window drops its oldest step once the
        mixture is formed.
        """
        rhs = [float(np.vdot(ldg_i, g)) for ldg_i, _ in self.steps]
        gamma = _mixing_weights(self.gram, rhs)
        if gamma is None:
            self.clear()
            return None
        out = u - g
        scratch = np.empty_like(out)
        for coeff, (_, dt) in zip(gamma, self.steps):
            np.multiply(dt, coeff, out=scratch)
            out -= scratch
        if len(self.steps) == _MIXING_DEPTH:
            # the next push would drop the oldest step, and a rejected
            # mixture clears the window, so no later read needs it
            self._drop_oldest()
        return out


def _backtrack(s: FieldState, current: float, spec: ProblemSpec, ball: BallSpec):
    """The first plain step u - step g, from _INITIAL_STEP down by _BACKTRACK_FACTOR,
    whose retracted trial strictly lowers the energy; None when none does."""
    step = _INITIAL_STEP
    while step >= _MIN_STEP:
        candidate = evaluate(s.u - step * s.g, spec, ball.radius)
        cand_energy = energy(candidate)
        if cand_energy < current:
            return candidate, cand_energy, step
        step *= _BACKTRACK_FACTOR
    return None


def minimize(spec: ProblemSpec, ball: BallSpec, mode: FirstMode) -> MinimizeResult:
    """Minimize the energy over the constraint ball by Anderson-mixed retracted descent.

    mode is the FirstMode that estimate_constants returns with the ball; the
    initial guess scales its e1 and phi_e1, and the descent drops it after
    that.
    Requires the forcing, of any sign, to respect the admissible bound, and
    stops with stop_reason budget after MAX_ITERS iterations.
    A zero forcing starts and ends at the zero field with zero energy.
    Every iterate stays in the ball; recorded energies are strictly
    decreasing. The accepted trial's state, gradient included, is the next
    iterate.
    """
    ball.check_forcing(spec.forcing_norm)

    s = initial_guess(spec, ball, mode)
    del mode  # read by the start alone; a caller that keeps no reference frees it here

    current, step = energy(s), 0.0
    trace = []
    iterations = 0
    mixed_steps = 0
    history = _MixingHistory()

    while True:
        fp = fixed_point_residual(s)
        trace.append((iterations, current, step, fp))
        if fp <= FP_THRESHOLD and pde_residual(s, spec) <= PDE_THRESHOLD:
            stop_reason = "fixed_point"
            break
        if iterations == MAX_ITERS:
            stop_reason = "budget"
            break
        history.push(s.g.values, s.u.values, s.residual.values)

        accepted = None
        trial = history.mixed(s.g.values, s.u.values) if history.steps else None
        if trial is not None:
            candidate = evaluate(ScalarField._own(spec.grid, trial), spec, ball.radius)
            cand_energy = energy(candidate)
            if cand_energy < current:
                accepted = (candidate, cand_energy, 1.0)
                mixed_steps += 1
            else:
                history.clear()
            del trial, candidate  # a rejected trial's state is not held through the backtracking
        if accepted is None:
            accepted = _backtrack(s, current, spec, ball)
        if accepted is None:
            # no step strictly lowers the energy, yet the residual gates fail
            stop_reason = "no_decrease"
            break

        s, current, step = accepted
        iterations += 1

    return MinimizeResult(s, tuple(trace), stop_reason, mixed_steps)
