"""Empirical constants, admissible radius, and the residual bound on the ball.

The two constants bound the coupling and power terms by powers of the
constraint-ball norm:

    ||c phi_u u||_L3 <= coupling_constant * ||u||^3
    ||sign(u)|u|^p||_L3 <= power_constant * ||u||^p

with ||.|| the w2n norm. They are estimated on a sampled family (the first
eigenfunction plus smoothed random fields) and inflated by a safety factor.
The family is streamed: each field is drawn, scored and dropped before the
next is drawn, so estimation holds one field at a time. Two upper bounds
taken from the field's max and L3 norms skip work that cannot change a
constant: the coupling bound skips the field's potential solve, and the
power bound skips its p-th-power pass, whenever the bound is below the best
ratio so far. The admissible radius r then satisfies

    coupling_constant r^3 + power_constant r^p <= r/2   for all r in (0, radius],

which caps the forcing at forcing_bound = radius / 2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .energy import ProblemSpec, evaluate
from .errors import EstimationFailureError, OutsideBallError
from .grid import DomainGrid, ScalarField, first_eigenpair, lp_norm, w2n_norm
from .poisson import compute_phi, solve_dirichlet_poisson
from .sampling import iter_smoothed_random_fields

CONSTANT_FLOOR = 1e-30
BALL_NORM_SLACK = 1e-12  # relative slack when checking membership of the closed ball
RESIDUAL_BOUND_SLACK = 1e-10
SKIP_MARGIN = 1e-9  # relative; a bound must beat the best ratio by this to skip a pass


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


def estimation_fields(grid: DomainGrid, samples: int, seed: int) -> Iterator[ScalarField]:
    """Estimation family, one field at a time: the first eigenfunction, then
    `samples` smoothed random fields."""
    yield first_eigenpair(grid)[0]
    yield from iter_smoothed_random_fields(grid, samples, seed)


def _green_row_sum_max(grid: DomainGrid) -> float:
    """tau = max (-Delta_h)^-1 1, the largest row sum of the nonnegative inverse."""
    return float(solve_dirichlet_poisson(ScalarField(grid, np.ones(grid.shape))).field.values.max())


def _ratio_bounds(
    u: ScalarField, w: float, coupling_max: float, tau: float, p: float
) -> tuple[float, float]:
    """Upper bounds on the coupling ratio ||c phi_u u||_3 / w^3 and the power
    ratio ||(|u|/w)^p||_3, from ||u||_inf and ||u||_3 alone.

    (-Delta_h)^-1 is entrywise nonnegative, so |phi_u| <= ||c||_inf ||u||_inf^2 tau
    pointwise, with tau = max (-Delta_h)^-1 1; multiplying by |c u| and taking
    the L3 norm gives the coupling bound. sum |u|^(3p) <= ||u||_inf^(3(p-1))
    sum |u|^3 gives the power bound.
    """
    u_max = float(np.abs(u.values).max()) / w
    l3 = lp_norm(u, 3) / w
    return coupling_max**2 * tau * u_max**2 * l3, u_max ** (p - 1.0) * l3


def estimate_constants(
    spec: ProblemSpec, samples: int, seed: int, safety: float = 2.0
) -> tuple[float, float]:
    """Estimate (coupling_constant, power_constant) on the sampled family.

    Both ratios are invariant under field rescaling, so the sampled
    amplitudes only probe rounding behavior. The family is streamed from
    estimation_fields, so one field is alive at a time. Samples with zero
    w2n norm are skipped; if nothing remains, estimation fails. With the
    bounds of _ratio_bounds, a sample's p-th-power pass is skipped when its
    power bound is below the best power ratio so far, and its potential is
    not solved when its coupling bound is below the best coupling ratio so
    far, each with a SKIP_MARGIN relative margin for rounding; the maxima,
    and so the constants, are the same as with every pass run. Constants
    are floored at a tiny positive value so a zero coupling field still
    yields a valid BallSpec.
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
    # the eigenfunction comes first and usually sets both ratios for good
    for u in estimation_fields(grid, samples, seed):
        w = w2n_norm(u)
        if w == 0.0:
            continue
        used += 1
        coupling_bound, power_bound = _ratio_bounds(u, w, coupling_max, tau, spec.p)
        if power_bound * (1.0 + SKIP_MARGIN) >= best_power:
            # ||sign(u)|u|^p||_3 / w^p taken as ||(|u|/w)^p||_3, so w^p cannot overflow
            ratio_p = lp_norm(ScalarField(grid, np.abs(u.values / w) ** spec.p), 3)
            best_power = max(best_power, ratio_p)
        if coupling_bound * (1.0 + SKIP_MARGIN) >= best_coupling:
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
