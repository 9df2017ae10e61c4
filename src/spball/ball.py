"""Empirical constants, admissible radius, and the residual bound on the ball.

The two constants bound the coupling and power terms by powers of the
constraint-ball norm:

    ||c phi_u u||_L3 <= coupling_constant * ||u||^3
    ||sign(u)|u|^p||_L3 <= power_constant * ||u||^p

with ||.|| the w2n norm. They are estimated on a sampled family (the first
eigenfunction plus smoothed random fields) and inflated by a safety factor.
A sampled field's potential is solved only when a solve-free upper bound on
its coupling ratio reaches the best ratio so far, so skipping never changes
a constant. The admissible radius r then satisfies

    coupling_constant r^3 + power_constant r^p <= r/2   for all r in (0, radius],

which caps the forcing at forcing_bound = radius / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ProblemSpec, evaluate
from .errors import EstimationFailureError, OutsideBallError
from .grid import DomainGrid, ScalarField, first_eigenpair, lp_norm, w2n_norm
from .poisson import compute_phi, solve_dirichlet_poisson
from .sampling import smoothed_random_fields

CONSTANT_FLOOR = 1e-30
BALL_NORM_SLACK = 1e-12  # relative slack when checking membership of the closed ball
RESIDUAL_BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class BallSpec:
    """Certified ball data; validated against its two defining inequalities."""

    coupling_constant: float
    power_constant: float
    radius: float
    forcing_bound: float
    p: float
    sample_count: int
    seed: int

    def __post_init__(self):
        for name in ("coupling_constant", "power_constant", "radius", "forcing_bound"):
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

    def contains(self, u: ScalarField) -> bool:
        return w2n_norm(u) <= self.radius * (1.0 + BALL_NORM_SLACK)


def estimation_fields(grid: DomainGrid, samples: int, seed: int) -> list[ScalarField]:
    """Estimation family: the first eigenfunction plus smoothed random fields."""
    e1, _ = first_eigenpair(grid)
    return [e1, *smoothed_random_fields(grid, samples, seed)]


def _green_row_sum_max(grid: DomainGrid) -> float:
    """tau = max (-Delta_h)^-1 1, the largest row sum of the nonnegative inverse."""
    return float(solve_dirichlet_poisson(ScalarField(grid, np.ones(grid.shape))).field.values.max())


def _coupling_ratio_bound(u: ScalarField, w: float, coupling_max: float, tau: float) -> float:
    """Upper bound on ||c phi_u u||_3 / w^3 that needs no solve.

    (-Delta_h)^-1 is entrywise nonnegative, so |phi_u| <= ||c||_inf ||u||_inf^2 tau
    pointwise, with tau = max (-Delta_h)^-1 1; multiplying by |c u| and taking
    the L3 norm gives the bound.
    """
    u_max = float(np.abs(u.values).max())
    return coupling_max**2 * tau * (u_max / w) ** 2 * (lp_norm(u, 3) / w)


def estimate_constants(
    spec: ProblemSpec, samples: int, seed: int, safety: float = 2.0
) -> tuple[float, float]:
    """Estimate (coupling_constant, power_constant) on the sampled family.

    Both ratios are invariant under field rescaling, so the sampled
    amplitudes only probe rounding behavior. Samples with zero w2n norm are
    skipped; if nothing remains, estimation fails. A sample's potential is
    not solved when _coupling_ratio_bound puts its coupling ratio below the
    best one so far, with a 1e-9 relative margin for rounding; the maximum,
    and so the constant, is the same as with every potential solved.
    Constants are floored at a tiny positive value so a zero coupling field
    still yields a valid BallSpec.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if safety < 1.0:
        raise ValueError(f"safety factor must be >= 1, got {safety}")
    grid = spec.grid
    coupling_max = float(np.abs(spec.coupling.values).max())
    tau = _green_row_sum_max(grid)
    best_coupling = 0.0
    best_power = 0.0
    used = 0
    # the eigenfunction comes first and usually sets the coupling ratio for good
    for u in estimation_fields(grid, samples, seed):
        w = w2n_norm(u)
        if w == 0.0:
            continue
        used += 1
        # ||sign(u)|u|^p||_3 / w^p taken as ||(|u|/w)^p||_3, so w^p cannot overflow
        ratio_p = lp_norm(ScalarField(grid, np.abs(u.values / w) ** spec.p), 3)
        best_power = max(best_power, ratio_p)
        if _coupling_ratio_bound(u, w, coupling_max, tau) * (1.0 + 1e-9) < best_coupling:
            continue
        phi = compute_phi(u, spec.coupling)
        num_c = lp_norm(ScalarField(grid, spec.coupling.values * phi.values * u.values), 3)
        best_coupling = max(best_coupling, num_c / w**3)
    if used == 0:
        raise EstimationFailureError("all estimation samples had zero w2n norm")
    return (
        max(safety * best_coupling, CONSTANT_FLOOR),
        max(safety * best_power, CONSTANT_FLOOR),
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


def make_ball(spec: ProblemSpec, samples: int, seed: int, safety: float = 2.0) -> BallSpec:
    """Estimate constants and assemble the certified BallSpec."""
    coupling_constant, power_constant = estimate_constants(spec, samples, seed, safety)
    radius = admissible_radius(coupling_constant, power_constant, spec.p)
    return BallSpec(
        coupling_constant=coupling_constant,
        power_constant=power_constant,
        radius=radius,
        forcing_bound=max_forcing_norm(radius),
        p=spec.p,
        sample_count=samples,
        seed=seed,
    )


def check_residual_bound(
    u: ScalarField, ball: BallSpec, spec: ProblemSpec
) -> tuple[float, float, bool]:
    """Check ||-c phi_u u + sign(u)|u|^p + f||_L3 against its ball bound.

    Returns (lhs, rhs, holds) with rhs = coupling_constant radius^3 +
    power_constant radius^p + ||f||_L3; `holds` allows a 1e-10 slack.
    """
    if not ball.contains(u):
        raise OutsideBallError(
            f"w2n norm {w2n_norm(u):.6e} exceeds the ball radius {ball.radius:.6e}"
        )
    lhs = lp_norm(evaluate(u, spec).rhs, 3)
    rhs = (
        ball.coupling_constant * ball.radius**3
        + ball.power_constant * ball.radius**ball.p
        + lp_norm(spec.forcing, 3)
    )
    return lhs, rhs, lhs <= rhs + RESIDUAL_BOUND_SLACK
