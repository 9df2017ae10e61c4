"""Coupled energy functional, its split, directional derivatives, and gradients.

The functional on interior fields u is

    E(u) = 1/2 ||grad u||^2 + 1/4 sum(c phi_u u^2) h^3
           - 1/(p+1) sum |u|^(p+1) h^3 - sum(f u) h^3

with c the nonnegative coupling field, f the forcing field, and phi_u the
potential from compute_phi. The power exponent p may exceed the critical
Sobolev range; the ball constraint elsewhere is what restores control.

Everything else is read from one FieldState per field, built by evaluate:
the field, its potential and the equation's right-hand side
-c phi_u u + sign(u)|u|^p + f, which is written out only in _state, the
no-solve builder evaluate shares with callers that already hold phi_u.
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


@dataclass(frozen=True, eq=False)
class FieldState:
    """A field u with its potential phi = phi_u and the equation's
    right-hand side rhs = -c phi_u u + sign(u)|u|^p + f; built by evaluate."""

    u: ScalarField
    phi: ScalarField
    rhs: ScalarField


def _state(u: ScalarField, phi: ScalarField, spec: ProblemSpec) -> FieldState:
    """The state of u from its potential phi, already solved; no solve."""
    rhs = ScalarField(
        spec.grid,
        -spec.coupling.values * phi.values * u.values
        + _signed_power(u.values, spec.p)
        + spec.forcing.values,
    )
    return FieldState(u, phi, rhs)


def evaluate(u: ScalarField, spec: ProblemSpec) -> FieldState:
    """The state of u: one linear solve for the potential, then the right-hand side."""
    spec.check_field(u)
    return _state(u, compute_phi(u, spec.coupling), spec)


def _energy_terms(s: FieldState, spec: ProblemSpec) -> tuple[float, float, float, float]:
    """The four energy terms (kinetic, coupling, power, forcing) at s.u; each
    is homogeneous in u, of degree 2, 4, p+1 and 1."""
    u = s.u
    h3 = spec.grid.h ** 3
    kinetic = 0.5 * h1_inner(u, u)
    coupling = 0.25 * float(np.sum(spec.coupling.values * s.phi.values * u.values**2)) * h3
    power = float(np.sum(np.abs(u.values) ** (spec.p + 1.0))) * h3 / (spec.p + 1.0)
    forcing = l2_inner(spec.forcing, u)
    return kinetic, coupling, power, forcing


def energy(s: FieldState, spec: ProblemSpec) -> EnergyBreakdown:
    """The functional at an evaluated field; no further solve."""
    kinetic, coupling, power, forcing = _energy_terms(s, spec)
    total = kinetic + coupling - power - forcing
    return EnergyBreakdown(kinetic, coupling, power, forcing, total)


def energy_split(s: FieldState, spec: ProblemSpec) -> tuple[float, float]:
    """Split into (convex_part, smooth_part) with total = convex - smooth.

    The convex part is the kinetic term (quadratic, hence convex); the
    smooth part collects the differentiable remainder with its sign flipped.
    """
    b = energy(s, spec)
    convex_part = b.kinetic
    smooth_part = -b.coupling + b.power + b.forcing
    return convex_part, smooth_part


def restricted_energy(s: FieldState, radius: float, spec: ProblemSpec) -> float:
    """Energy extended by +inf outside the closed constraint ball."""
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if w2n_norm(s.u) > radius:
        return math.inf
    return energy(s, spec).total


def directional_derivative(s: FieldState, v: ScalarField) -> float:
    """First variation of the energy at s.u in direction v: (grad u, grad v) - (rhs, v)."""
    return h1_inner(s.u, v) - l2_inner(s.rhs, v)


def strong_residual(s: FieldState) -> ScalarField:
    """Nodewise Euler-Lagrange residual -Delta_h u - rhs(u), the L2 gradient."""
    return apply_laplacian(s.u) - s.rhs


def gradient_field(s: FieldState) -> ScalarField:
    """Sobolev gradient u - T(u), with T(u) = (-Delta_h)^-1 rhs(u) the auxiliary map.

    It is the Riesz representative of the strong residual in the discrete H1
    inner product, since (-Delta_h)^-1 (-Delta_h u - rhs) = u - T(u); one solve.
    """
    return s.u - solve_dirichlet_poisson(s.rhs).field


__all__ = [
    "EnergyBreakdown",
    "FieldState",
    "ProblemSpec",
    "directional_derivative",
    "energy",
    "energy_split",
    "evaluate",
    "gradient_field",
    "restricted_energy",
    "strong_residual",
]
