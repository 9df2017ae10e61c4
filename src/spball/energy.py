"""Coupled energy functional, the field state it is read from, and the Sobolev gradient.

The functional on interior fields u is

    E(u) = 1/2 ||grad u||^2 + 1/4 sum(c phi_u u^2) h^3
           - 1/(p+1) sum |u|^(p+1) h^3 - sum(f u) h^3

with c the nonnegative coupling field, f the forcing field of any sign, and
phi_u the potential from compute_phi. The power exponent p may exceed the
critical Sobolev range; the ball constraint elsewhere is what restores control.

Everything else is read from one FieldState per field, built by evaluate:
the field, its potential, the equation's right-hand side
-c phi_u u + sign(u)|u|^p + f, lap = -Delta_h u, the four energy terms
and, taken on first use and kept, the ball norm ||lap||_3 and the strong
residual lap - rhs. All are
written out only in _state, the no-solve builder evaluate shares with
callers that already hold phi_u and lap; each term pairs u with an array
the state forms anyway, so a state costs no gradient pass, and evaluate's
stencil for lap is its only one. ProblemSpec holds ||f||_3 for the same
reason: a stop test re-forms neither the residual nor the forcing norm.
The power sign(u)|u|^p is one array per state: for an integral p from 2
to 7 it is formed by products, within (p - 1) eps relative of libm pow;
any other p uses pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionViolationError, GridMismatchError
from .grid import DomainGrid, ScalarField, apply_laplacian, lp_norm
from .poisson import compute_phi, solve_dirichlet_poisson

# the largest integral exponent formed by products, in at most four field
# passes. On one x86_64 core they take 0.3-0.6 of pow's time for p from 3 to
# 20 at n=32, but at n=128 p = 7 ties pow and p = 11 and 20 lose by 10-30%
# (BENCH_pr17.json)
_PRODUCT_POWER_MAX = 7


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data: exponent, coupling field, forcing field and grid.

    The forcing may take any sign, zero included, as the existence theory
    asks only f in L-infinity. The coupling must be nonnegative: compute_phi
    needs it for the discrete maximum principle that verify's phi_nonneg gate
    checks. forcing_norm is ||f||_3, taken once at construction.
    """

    p: float
    coupling: ScalarField
    forcing: ScalarField
    grid: DomainGrid
    forcing_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise AssumptionViolationError(f"power exponent must satisfy p > 1, got {self.p}")
        if self.coupling.grid != self.grid or self.forcing.grid != self.grid:
            raise GridMismatchError("coupling/forcing fields must live on the problem grid")
        if float(self.coupling.values.min()) < 0.0:
            raise AssumptionViolationError("coupling field must be nonnegative")
        object.__setattr__(self, "forcing_norm", lp_norm(self.forcing, 3))

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
    """The odd extension sign(u)|u|^p, well defined for non-integer p, in one array.

    An integral p from 2 to _PRODUCT_POWER_MAX is formed by left-to-right
    square-and-multiply in that array: u^2, then a squaring per further bit
    of p and a product with u per set bit. Multiplying by u rather than |u|
    flips only signs, which copysign sets at the end. Each intermediate |u|^k,
    k < p, lies between 1 and |u|^p, so no step overflows or underflows before
    |u|^p would. The relative error against libm pow is within (p - 1) eps,
    at most 6 eps (1.3e-15) at p = 7. Any other p is np.power of |u|.
    """
    if float(p).is_integer() and 2 <= p <= _PRODUCT_POWER_MAX:
        out = np.multiply(values, values)
        for i, bit in enumerate(bin(int(p))[3:]):  # the bits after the leading one
            if i:
                out *= out
            if bit == "1":
                out *= values
    else:
        out = np.abs(values)
        out **= p
    return np.copysign(out, values, out=out)


@dataclass(frozen=True, eq=False)
class FieldState:
    """A field u with its potential phi = phi_u, the equation's right-hand
    side rhs = -c phi_u u + sign(u)|u|^p + f, lap = -Delta_h u and the energy
    terms (kinetic, coupling, power, forcing); built by evaluate."""

    u: ScalarField
    phi: ScalarField
    rhs: ScalarField
    lap: ScalarField
    terms: tuple[float, float, float, float]

    @cached_property
    def w2n(self) -> float:
        """The ball norm ||-Delta_h u||_3, from lap, taken once."""
        return lp_norm(self.lap, 3.0)

    @cached_property
    def residual(self) -> ScalarField:
        """The strong residual lap - rhs = -Delta_h u - rhs(u), formed once: the
        energy's L2 gradient, so <residual, v> h^3 is its first variation along v."""
        return self.lap - self.rhs

    @property
    def grad_sq(self) -> float:
        """||grad u||^2 = <-Delta_h u, u> h^3 (summation by parts), twice the kinetic term."""
        return 2.0 * self.terms[0]


def _state(u: ScalarField, phi: ScalarField, lap: ScalarField, spec: ProblemSpec) -> FieldState:
    """The state of u from its potential phi, already solved, and lap = -Delta_h u,
    already formed; no solve and no stencil.

    The terms are homogeneous in u, of degree 2, 4, p+1 and 1: 1/2 <lap, u>,
    1/4 <c phi u, u>, <sign(u)|u|^p, u>/(p+1) and <f, u>, each times h^3.
    """
    coupled = spec.coupling.values * phi.values
    coupled *= u.values
    power = _signed_power(u.values, spec.p)
    h3 = spec.grid.h ** 3
    terms = (
        0.5 * float(np.vdot(lap.values, u.values)) * h3,
        0.25 * float(np.vdot(coupled, u.values)) * h3,
        float(np.vdot(power, u.values)) * h3 / (spec.p + 1.0),
        float(np.vdot(spec.forcing.values, u.values)) * h3,
    )
    # power's term is taken, so its array becomes rhs = (power - coupled) + f
    power -= coupled
    power += spec.forcing.values
    return FieldState(u, phi, ScalarField._own(spec.grid, power), lap, terms)


def evaluate(u: ScalarField, spec: ProblemSpec) -> FieldState:
    """The state of u: one linear solve for the potential, one stencil for
    -Delta_h u, then the right-hand side."""
    spec.check_field(u)
    return _state(u, compute_phi(u, spec.coupling), apply_laplacian(u), spec)


def energy(s: FieldState) -> EnergyBreakdown:
    """The functional at an evaluated field, from the terms its state holds."""
    kinetic, coupling, power, forcing = s.terms
    return EnergyBreakdown(kinetic, coupling, power, forcing, kinetic + coupling - power - forcing)


def restricted_energy(s: FieldState, radius: float) -> float:
    """Energy extended by +inf outside the closed constraint ball."""
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if s.w2n > radius:
        return math.inf
    return energy(s).total


def gradient_field(s: FieldState) -> ScalarField:
    """Sobolev gradient u - T(u), with T(u) = (-Delta_h)^-1 rhs(u) the auxiliary map.

    It is the Riesz representative of the strong residual in the discrete H1
    inner product, since (-Delta_h)^-1 (-Delta_h u - rhs) = u - T(u); one solve.
    So -Delta_h g = lap - rhs, the state's residual, up to solve rounding:
    verify reads ||grad g||^2 = <lap - rhs, g> h^3 from it with no gradient pass.
    """
    return s.u - solve_dirichlet_poisson(s.rhs).field

