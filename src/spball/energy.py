"""Coupled energy functional, its split, directional derivatives, and gradients.

The functional on interior fields u is

    E(u) = 1/2 ||grad u||^2 + 1/4 sum(c phi_u u^2) h^3
           - 1/(p+1) sum |u|^(p+1) h^3 - sum(f u) h^3

with c the nonnegative coupling field, f the forcing field, and phi_u the
potential from compute_phi. The power exponent p may exceed the critical
Sobolev range; the ball constraint elsewhere is what restores control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, GridMismatchError
from .grid import (
    DomainGrid,
    ScalarField,
    apply_laplacian,
    h1_inner,
    l2_inner,
    w2n_norm,
)
from .poisson import compute_phi, solve_dirichlet_poisson

GRADIENT_METRICS = ("sobolev", "l2")


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data: exponent, coupling field, forcing field and grid.

    require_positive_forcing=False permits a nonnegative (possibly zero)
    forcing for diagnostics; the default enforces strict positivity.
    """

    p: float
    coupling: ScalarField
    forcing: ScalarField
    grid: DomainGrid
    require_positive_forcing: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise AssumptionViolationError(f"power exponent must satisfy p > 1, got {self.p}")
        if self.coupling.grid != self.grid or self.forcing.grid != self.grid:
            raise GridMismatchError("coupling/forcing fields must live on the problem grid")
        if float(self.coupling.values.min()) < 0.0:
            raise AssumptionViolationError("coupling field must be nonnegative")
        fmin = float(self.forcing.values.min())
        if self.require_positive_forcing:
            if fmin <= 0.0:
                raise AssumptionViolationError(
                    "forcing field must be strictly positive "
                    "(set require_positive_forcing=False for zero-forcing diagnostics)"
                )
        elif fmin < 0.0:
            raise AssumptionViolationError("forcing field must be nonnegative")

    def check_field(self, u: ScalarField) -> None:
        if u.grid != self.grid:
            raise GridMismatchError("field does not live on the problem grid")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy terms; total = kinetic + coupling - power - forcing."""

    kinetic: float
    coupling: float
    power: float
    forcing: float
    total: float


def _signed_power(values: np.ndarray, p: float) -> np.ndarray:
    # odd extension sign(u) |u|^p, well defined for non-integer p
    return np.sign(values) * np.abs(values) ** p


def _energy_terms(
    u: ScalarField, phi: ScalarField, spec: ProblemSpec
) -> tuple[float, float, float, float]:
    """The four energy terms (kinetic, coupling, power, forcing) at u, whose
    potential is phi; each is homogeneous in u, of degree 2, 4, p+1 and 1."""
    h3 = spec.grid.h ** 3
    kinetic = 0.5 * h1_inner(u, u)
    coupling = 0.25 * float(np.sum(spec.coupling.values * phi.values * u.values**2)) * h3
    power = float(np.sum(np.abs(u.values) ** (spec.p + 1.0))) * h3 / (spec.p + 1.0)
    forcing = l2_inner(spec.forcing, u)
    return kinetic, coupling, power, forcing


def energy(u: ScalarField, spec: ProblemSpec) -> EnergyBreakdown:
    """Evaluate the functional; one linear solve for the potential."""
    spec.check_field(u)
    kinetic, coupling, power, forcing = _energy_terms(u, compute_phi(u, spec.coupling), spec)
    total = kinetic + coupling - power - forcing
    return EnergyBreakdown(kinetic, coupling, power, forcing, total)


def energy_split(u: ScalarField, spec: ProblemSpec) -> tuple[float, float]:
    """Split into (convex_part, smooth_part) with total = convex - smooth.

    The convex part is the kinetic term (quadratic, hence convex); the
    smooth part collects the differentiable remainder with its sign flipped.
    """
    b = energy(u, spec)
    convex_part = b.kinetic
    smooth_part = -b.coupling + b.power + b.forcing
    return convex_part, smooth_part


def restricted_energy(u: ScalarField, radius: float, spec: ProblemSpec) -> float:
    """Energy extended by +inf outside the closed constraint ball."""
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if w2n_norm(u) > radius:
        return math.inf
    return energy(u, spec).total


def directional_derivative(u: ScalarField, v: ScalarField, spec: ProblemSpec) -> float:
    """First variation of the energy at u in direction v."""
    spec.check_field(u)
    spec.check_field(v)
    phi = compute_phi(u, spec.coupling)
    h3 = spec.grid.h ** 3
    grad_term = h1_inner(u, v)
    coupling = float(np.sum(spec.coupling.values * phi.values * u.values * v.values)) * h3
    power = float(np.sum(_signed_power(u.values, spec.p) * v.values)) * h3
    forcing = l2_inner(spec.forcing, v)
    return grad_term + coupling - power - forcing


def equation_rhs(
    u: ScalarField, spec: ProblemSpec, phi: ScalarField | None = None
) -> ScalarField:
    """Right-hand side of the equation, -c phi_u u + sign(u)|u|^p + f.

    phi, when given, must be compute_phi(u, spec.coupling); it saves a solve.
    """
    spec.check_field(u)
    if phi is None:
        phi = compute_phi(u, spec.coupling)
    return ScalarField(
        spec.grid,
        -spec.coupling.values * phi.values * u.values
        + _signed_power(u.values, spec.p)
        + spec.forcing.values,
    )


def strong_residual(
    u: ScalarField, spec: ProblemSpec, rhs_field: ScalarField | None = None
) -> ScalarField:
    """Nodewise Euler-Lagrange residual -Delta_h u - equation_rhs(u).

    rhs_field, when given, must be equation_rhs(u, spec); it saves a solve.
    """
    return apply_laplacian(u) - (equation_rhs(u, spec) if rhs_field is None else rhs_field)


def gradient_field(u: ScalarField, spec: ProblemSpec, metric: str = "sobolev") -> ScalarField:
    """Gradient of the energy at u.

    metric "l2" returns the nodewise Euler-Lagrange residual; "sobolev"
    returns its Riesz representative in the discrete H1 inner product
    (one extra Poisson solve), which is the useful descent direction.
    """
    if metric not in GRADIENT_METRICS:
        raise ValueError(f"metric must be one of {GRADIENT_METRICS}, got {metric!r}")
    g = strong_residual(u, spec)
    if metric == "l2":
        return g
    return solve_dirichlet_poisson(g).field


__all__ = [
    "EnergyBreakdown",
    "GRADIENT_METRICS",
    "ProblemSpec",
    "directional_derivative",
    "energy",
    "energy_split",
    "equation_rhs",
    "gradient_field",
    "restricted_energy",
    "strong_residual",
]
