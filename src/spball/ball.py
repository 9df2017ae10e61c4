"""Ball constants and the admissible radius.

Two constants bound the coupling and power terms by powers of the
constraint-ball norm:

    ||c phi_u u||_L3 <= coupling_constant * ||u||^3
    ||sign(u)|u|^p||_L3 <= power_constant * ||u||^p

with ||.|| the w2n norm, and a third bounds the potential itself,
||grad phi_u|| <= potential_constant * ||grad u||^2, for verify's phi_bound
gate. All three are ratios of the first Dirichlet eigenfunction e1, which
exceed those of every smoothed random field tried (estimate_constants). The
admissible radius r then satisfies

    coupling_constant r^3 + power_constant r^p <= r/2   for all r in (0, radius],

which leaves the forcing the budget forcing_bound = radius / 2, so that on
the ball ||rhs(u)||_3 <= coupling_constant radius^3 + power_constant
radius^p + ||f||_3 <= radius. BallSpec holds the ball and its membership
tests; FirstMode hands e1 and what the constants computed from it on to the
forcing and the descent's start. The constants, the radius inequality and
each membership test are evaluated in floating point, and nothing encloses
their rounding yet: the inequality holds for the computed numbers, not as a
bound proved against rounding error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, BallOverflowError, ForcingTooLargeError
from .grid import ScalarField, first_eigenpair, lp_norm, unbroadcast
from .poisson import compute_phi

CONSTANT_FLOOR = 1e-30
BALL_RTOL = 1e-12  # the one slack of every membership test, relative to its bound


def _radius_excess(coupling_constant: float, power_constant: float, p: float, r: float) -> float:
    """g(r) = coupling_constant r^2 + power_constant r^(p-1) - 1/2: the
    radius inequality over r, which holds when g(r) <= 0."""
    try:
        power = power_constant * r ** (p - 1.0)
    except OverflowError:  # r^(p-1) beyond float range, so g(r) > 0 for sure
        return math.inf
    return coupling_constant * r * r + power - 0.5


@dataclass(frozen=True)
class BallSpec:
    """Certified ball data, validated against its defining inequality, and
    its membership tests. coupling_constant and power_constant set the
    radius; potential_constant is the phi_bound gate's constant, calibrated
    on the same eigenfunction."""

    coupling_constant: float
    power_constant: float
    potential_constant: float
    radius: float
    p: float

    def __post_init__(self):
        for name in ("coupling_constant", "power_constant", "potential_constant", "radius"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        excess = _radius_excess(self.coupling_constant, self.power_constant, self.p, self.radius)
        if excess > 0.0:
            raise ValueError(
                f"ball radius {self.radius:.6e} fails its defining inequality: "
                f"coupling_constant r^2 + power_constant r^(p-1) exceeds 1/2 by {excess:.6e}"
            )

    @property
    def forcing_bound(self) -> float:
        """The forcing's budget: the radius inequality leaves it half the radius."""
        return 0.5 * self.radius

    def contains(self, norm: float) -> bool:
        """Whether a ball norm, ||-Delta_h v||_3, lies in the closed ball."""
        return norm <= self.radius * (1.0 + BALL_RTOL)

    def check_forcing(self, norm: float) -> None:
        """Raise ForcingTooLargeError when ||f||_3 = norm exceeds the forcing bound."""
        if norm > self.forcing_bound * (1.0 + BALL_RTOL):
            raise ForcingTooLargeError(norm, self.forcing_bound)


@dataclass(frozen=True, eq=False)
class FirstMode:
    """The first eigenfunction e1 = s (x) s (x) s with what the ball constants
    computed from fields, for the forcing and the descent's start: norm =
    ||e1||_3, its potential phi and phi_grad_sq = ||grad phi_e1||^2 =
    <c phi_e1 e1, e1> h^3. What e1's grid determines, lambda_h, ||grad e1||^2
    and the axis sums over s = grid.e1_axis, is read from the grid."""

    e1: ScalarField
    norm: float
    phi: ScalarField
    phi_grad_sq: float

    @property
    def lam(self) -> float:
        """lambda_h, e1's eigenvalue."""
        return self.e1.grid.first_eigenvalue

    @property
    def grad_sq(self) -> float:
        """||grad e1||^2 = <-Delta_h e1, e1> h^3 = lambda_h (h sum_i s_i^2)^3."""
        grid = self.e1.grid
        s = grid.e1_axis
        return self.lam * (grid.h * float(np.vdot(s, s))) ** 3

    def power_sum(self, d: float, q: float) -> float:
        """h sum_i (s_i / d^(1/3))^q, the cube root of sum (e1/d)^q h^3 over the
        cube, as e1 is a product of three factors; each term is the cube root
        of the field's own, so it underflows and overflows with it."""
        grid = self.e1.grid
        return grid.h * float(np.sum((grid.e1_axis / np.cbrt(d)) ** q))


def estimate_constants(
    p: float,
    coupling: ScalarField,
    safety: float = 2.0,
) -> tuple[BallSpec, FirstMode]:
    """The certified ball and the FirstMode that set it: three constants from
    the first eigenfunction e1, lambda_h = first_eigenpair(grid) of the
    coupling's grid and e1's one potential phi_e1, and the admissible radius
    they allow.

    All three ratios are invariant under field rescaling. The positive e1
    sets them: over the grids, exponents and couplings checked, no smoothed
    random field came within 10x of its coupling ratio or 2x of its power
    ratio (tests/test_ball.py keeps that comparison), nor above its ratio
    ||grad phi_u|| / ||grad u||^2 (tests/test_verify.py). The first two are
    e1's ratios times `safety`; the potential constant is twice its ratio,
    whatever `safety` is. Each is floored at a tiny positive value so a zero
    coupling field still yields a valid BallSpec.

    -Delta_h e1 = lambda_h e1 makes the ball norm w = lambda_h ||e1||_3;
    ||grad e1||^2 (FirstMode.grad_sq) and the power ratio
    ||(|e1|/w)^p||_3 = power_sum(w, 3p) are sums over one axis. ||e1||_3 is
    the field's lp_norm, not h sum_i s_i^3, whose other rounding would move
    every run: the start and a forcing scaled to the bound are multiples of
    1/||e1||_3. ||grad phi_e1||^2 = <c phi_e1 e1, e1> h^3 pairs the product
    whose L3 norm is the coupling ratio's numerator; a coupling so large that
    this product overflows raises BallOverflowError.
    A coupling with a negative value raises AssumptionViolationError, the
    one sign check before the potentials, as in ProblemSpec; compute_phi
    does not repeat it.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be a finite number > 1, got {p}")
    if not (math.isfinite(safety) and safety >= 1.0):
        raise ValueError(f"safety must be a finite number >= 1, got {safety}")
    if float(unbroadcast(coupling.values).min()) < 0.0:
        raise AssumptionViolationError("coupling field must be nonnegative")
    grid = coupling.grid
    e1, lam = first_eigenpair(grid)
    norm = lp_norm(e1, 3)
    w = lam * norm
    phi = compute_phi(e1, coupling)
    with np.errstate(over="ignore", invalid="ignore"):
        coupled = coupling.values * phi.values
        coupled *= e1.values
        grad_phi_sq = float(np.vdot(coupled, e1.values)) * grid.h ** 3
    # an overflow anywhere in the product or its pairing leaves this inf or nan
    if not math.isfinite(grad_phi_sq):
        raise BallOverflowError(
            "the coupling ratio's numerator c·φ_e1·e1 overflows the float range "
            f"(coupling up to {float(coupling.values.max()):.6g})"
        )
    num_c = lp_norm(ScalarField._own(grid, coupled), 3)
    mode = FirstMode(e1, norm, phi, grad_phi_sq)
    c_coupling = max(safety * (num_c / w**3), CONSTANT_FLOOR)
    c_power = max(safety * mode.power_sum(w, 3.0 * p), CONSTANT_FLOOR)
    c_potential = max(2.0 * (math.sqrt(max(grad_phi_sq, 0.0)) / mode.grad_sq), CONSTANT_FLOOR)
    radius = admissible_radius(c_coupling, c_power, p)
    return BallSpec(c_coupling, c_power, c_potential, radius, p), mode


def admissible_radius(coupling_constant: float, power_constant: float, p: float) -> float:
    """Largest radius r with coupling_constant r^2 + power_constant r^(p-1) <= 1/2.

    g(r) = _radius_excess(r) is strictly increasing from -1/2, so the root
    exists and is unique; bisection to 1e-12 relative width returns the left
    endpoint, where g <= 0 holds exactly as BallSpec evaluates it. A root
    below the smallest positive float raises ValueError.
    """
    for name, val in (("coupling_constant", coupling_constant), ("power_constant", power_constant)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")

    g = functools.partial(_radius_excess, coupling_constant, power_constant, p)
    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(5000):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise ValueError("the admissible radius is below the smallest positive float")
    return lo
