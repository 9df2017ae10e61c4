"""Ball constants, admissible radius, and the residual bound on the ball.

Two constants bound the coupling and power terms by powers of the
constraint-ball norm:

    ||c phi_u u||_L3 <= coupling_constant * ||u||^3
    ||sign(u)|u|^p||_L3 <= power_constant * ||u||^p

with ||.|| the w2n norm, and a third bounds the potential itself,
||grad phi_u|| <= potential_constant * ||grad u||^2, for verify's phi_bound
gate. All three are ratios of the first Dirichlet eigenfunction, which
exceed those of every smoothed random field tried; one potential solve is
the whole cost, and make_ball hands that potential phi_e1 on, since the
descent starts from a multiple of e1. The admissible radius r then satisfies

    coupling_constant r^3 + power_constant r^p <= r/2   for all r in (0, radius],

which caps the forcing at forcing_bound = radius / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import FieldState, ProblemSpec, evaluate
from .errors import OutsideBallError
from .grid import ScalarField, first_eigenpair, grad_l2_norm, lp_norm, w2n_norm
from .poisson import compute_phi

CONSTANT_FLOOR = 1e-30
BALL_NORM_SLACK = 1e-12  # relative slack when checking membership of the closed ball
RESIDUAL_BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class BallSpec:
    """Certified ball data; validated against its two defining inequalities.

    coupling_constant and power_constant set the radius; potential_constant
    is the phi_bound gate's constant, calibrated on the same eigenfunction.
    """

    coupling_constant: float
    power_constant: float
    potential_constant: float
    radius: float
    forcing_bound: float
    p: float

    def __post_init__(self):
        for name in ("coupling_constant", "power_constant", "potential_constant", "radius",
                     "forcing_bound"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        half = (
            self.coupling_constant * self.radius**3
            + self.power_constant * self.radius**self.p
        )
        if half > 0.5 * self.radius + 1e-12:
            raise ValueError(
                "radius fails its defining inequality: "
                f"{half:.6e} > {0.5 * self.radius:.6e} + 1e-12"
            )
        if half + self.forcing_bound > self.radius + 1e-12:
            raise ValueError("forcing bound is incompatible with the radius")

    def contains(self, s: FieldState) -> bool:
        return s.w2n <= self.radius * (1.0 + BALL_NORM_SLACK)


def estimate_constants(
    p: float, coupling: ScalarField, safety: float = 2.0
) -> tuple[float, float, float, ScalarField]:
    """(coupling_constant, power_constant, potential_constant, phi_e1) from the
    first eigenfunction e1 and its one potential phi_e1, which is returned too.

    All three ratios are invariant under field rescaling. The positive e1
    sets them: over the grids, exponents and couplings checked, no smoothed
    random field came within 10x of its coupling ratio or 2x of its power
    ratio (tests/test_ball.py keeps that comparison), nor above its ratio
    ||grad phi_u|| / ||grad u||^2 (tests/test_verify.py). The first two are
    e1's ratios times `safety`; the potential constant is twice its ratio,
    whatever `safety` is. Each is floored at a tiny positive value so a zero
    coupling field still yields a valid BallSpec.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be a finite number > 1, got {p}")
    if not (math.isfinite(safety) and safety >= 1.0):
        raise ValueError(f"safety must be a finite number >= 1, got {safety}")
    grid = coupling.grid
    e1 = first_eigenpair(grid)[0]
    w = w2n_norm(e1)
    # ||sign(u)|u|^p||_3 / w^p taken as ||(|u|/w)^p||_3, so w^p cannot overflow
    power_ratio = lp_norm(ScalarField._own(grid, np.abs(e1.values / w) ** p), 3)
    phi = compute_phi(e1, coupling)
    num_c = lp_norm(ScalarField._own(grid, coupling.values * phi.values * e1.values), 3)
    return (
        max(safety * (num_c / w**3), CONSTANT_FLOOR),
        max(safety * power_ratio, CONSTANT_FLOOR),
        max(2.0 * (grad_l2_norm(phi) / grad_l2_norm(e1) ** 2), CONSTANT_FLOOR),
        phi,
    )


def admissible_radius(coupling_constant: float, power_constant: float, p: float) -> float:
    """Largest radius r with coupling_constant r^2 + power_constant r^(p-1) <= 1/2.

    g(r) = coupling_constant r^2 + power_constant r^(p-1) - 1/2 is strictly
    increasing from -1/2, so the root exists and is unique; bisection to
    1e-12 relative width returns the certified left endpoint (g <= 0 there).
    """
    for name, val in (("coupling_constant", coupling_constant), ("power_constant", power_constant)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")

    def g(r: float) -> float:
        try:
            power = power_constant * r ** (p - 1.0)
        except OverflowError:  # r^(p-1) beyond float range, so g(r) > 0 for sure
            return math.inf
        return coupling_constant * r * r + power - 0.5

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
    return lo if lo > 0.0 else hi


def max_forcing_norm(radius: float) -> float:
    """Admissible forcing bound: half the ball radius."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return 0.5 * radius


def make_ball(
    p: float, coupling: ScalarField, safety: float = 2.0
) -> tuple[BallSpec, ScalarField]:
    """Estimate constants and assemble the certified BallSpec; returns it with
    phi_e1, the potential of the first eigenfunction that set the constants."""
    c_coupling, c_power, c_potential, phi_e1 = estimate_constants(p, coupling, safety)
    radius = admissible_radius(c_coupling, c_power, p)
    return BallSpec(c_coupling, c_power, c_potential, radius, max_forcing_norm(radius), p), phi_e1


def check_residual_bound(
    u: ScalarField, ball: BallSpec, spec: ProblemSpec
) -> tuple[float, float, bool]:
    """Check ||-c phi_u u + sign(u)|u|^p + f||_L3 against its ball bound.

    Returns (lhs, rhs, holds) with rhs = coupling_constant radius^3 +
    power_constant radius^p + ||f||_L3; `holds` allows a 1e-10 slack.
    """
    s = evaluate(u, spec)
    if not ball.contains(s):
        raise OutsideBallError(
            f"w2n norm {s.w2n:.6e} exceeds the ball radius {ball.radius:.6e}"
        )
    lhs = lp_norm(s.rhs, 3)
    rhs = (
        ball.coupling_constant * ball.radius**3
        + ball.power_constant * ball.radius**ball.p
        + spec.forcing_norm
    )
    return lhs, rhs, lhs <= rhs + RESIDUAL_BOUND_SLACK
