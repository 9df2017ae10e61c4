"""Coupled energy functional, the field state it is read from, and the Sobolev gradient.

The functional on interior fields u is

    E(u) = 1/2 ||grad u||^2 + 1/4 sum(c phi_u u^2) h^3
           - 1/(p+1) sum |u|^(p+1) h^3 - sum(f u) h^3

with c the nonnegative coupling field, f the forcing field of any sign, and
phi_u the potential from compute_phi. The power exponent p may exceed the
critical Sobolev range; the ball constraint elsewhere is what restores control.

The equation is -Delta_h u = rhs(u), with the right-hand side
rhs(u) = -c phi_u u + sign(u)|u|^p + f, and its solutions are the fixed
points of the auxiliary map T(u) = (-Delta_h)^-1 rhs(u). Everything else is
read from one FieldState per field, built by evaluate: the ball norm
||-Delta_h u||_3, the four energy terms, the range of phi_u, and the Sobolev
gradient g = u - T(u) with the strong residual -Delta_h u - rhs and the
norms that the descent's stop test and verify compare. The terms and rhs
are written out only in _state, and the gradient only in gradient_field.
ProblemSpec holds ||f||_3, taken once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolationError
from .grid import DomainGrid, ScalarField, apply_laplacian, lp_norm, unbroadcast
from .poisson import compute_phi, solve_dirichlet_poisson

# the largest integral exponent formed by products, in at most four field
# passes. On one x86_64 core they take 0.3-0.6 of pow's time for p from 3 to
# 20 at n=32, but at n=128 p = 7 ties pow and p = 11 and 20 lose by 10-30%
# (BENCH_pr17.json)
_PRODUCT_POWER_MAX = 7


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data: exponent, coupling field and forcing field.

    The problem's grid is the coupling's, and the forcing must live on it.
    The forcing may take any sign, zero included, as the existence theory
    asks only f in L-infinity. The coupling must be nonnegative: compute_phi
    needs it for the discrete maximum principle that verify's phi_nonneg gate
    checks. forcing_norm is ||f||_3, taken once at construction.
    """

    p: float
    coupling: ScalarField
    forcing: ScalarField
    forcing_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise AssumptionViolationError(f"power exponent must satisfy p > 1, got {self.p}")
        self.coupling._check_same_grid(self.forcing)
        if float(unbroadcast(self.coupling.values).min()) < 0.0:
            raise AssumptionViolationError("coupling field must be nonnegative")
        object.__setattr__(self, "forcing_norm", lp_norm(self.forcing, 3))

    @property
    def grid(self) -> DomainGrid:
        return self.coupling.grid


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
    """A field u with its ball norm w2n = ||-Delta_h u||_3, the energy terms
    (kinetic, coupling, power, forcing), phi_range, the minimum and maximum
    of its potential phi_u, and its gradient: g = u - T(u), the strong
    residual -Delta_h u - rhs, which is -Delta_h g up to solve rounding, the
    residual's L3 norm and rhs_norm = ||rhs||_3, the ball norm of T(u) since
    -Delta_h T(u) = rhs; built by evaluate. It holds three arrays, u, g and
    the residual."""

    u: ScalarField
    terms: tuple[float, float, float, float]
    phi_range: tuple[float, float]
    w2n: float
    g: ScalarField
    residual: ScalarField
    residual_norm: float
    rhs_norm: float

    @property
    def grad_sq(self) -> float:
        """||grad u||^2 = <-Delta_h u, u> h^3 (summation by parts), twice the kinetic term."""
        return 2.0 * self.terms[0]


def _state(u: ScalarField, phi: np.ndarray, lap: ScalarField, w2n: float,
           spec: ProblemSpec) -> FieldState:
    """The state of u from its potential's values phi, already solved,
    lap = -Delta_h u, already formed, and w2n = ||lap||_3; no stencil, and
    one solve, the gradient's.

    phi and lap must be arrays the caller alone holds, and neither is read
    after: once phi's minimum and maximum are read, c phi u is formed in it,
    and then rhs, and once the terms are taken gradient_field writes the
    strong residual into lap's array and g into rhs's. The terms are
    homogeneous in u, of degree 2, 4, p+1 and 1: 1/2 <lap, u>,
    1/4 <c phi u, u>, <sign(u)|u|^p, u>/(p+1) and <f, u>, each times h^3.
    """
    phi_range = (float(phi.min()), float(phi.max()))
    coupled = phi
    coupled *= spec.coupling.values
    coupled *= u.values
    power = _signed_power(u.values, spec.p)
    h3 = spec.grid.h ** 3
    terms = (
        0.5 * float(np.vdot(lap.values, u.values)) * h3,
        0.25 * float(np.vdot(coupled, u.values)) * h3,
        float(np.vdot(power, u.values)) * h3 / (spec.p + 1.0),
        float(np.vdot(spec.forcing.values, u.values)) * h3,
    )
    # the terms are taken, so phi's array becomes rhs = (power - coupled) + f
    # and the power array goes before the gradient's solve
    rhs = np.subtract(power, coupled, out=coupled)
    del power
    rhs += spec.forcing.values
    rhs = ScalarField._own(spec.grid, rhs)
    return FieldState(u, terms, phi_range, w2n, *gradient_field(u, lap, rhs))


def evaluate(u: ScalarField, spec: ProblemSpec, radius: float = math.inf) -> FieldState:
    """The state of u: one linear solve for the potential, one stencil for
    -Delta_h u, then the right-hand side and one solve for the gradient.

    A u outside the closed ball of the w2n norm with this radius is pulled
    back onto it first, by radial retraction: t u with t = radius /
    ||-Delta_h u||_3, whose potential is t^2 phi_u, so the retraction costs
    one more stencil and no solve. A u off the problem's grid raises
    GridMismatchError from compute_phi, the one grid check.
    """
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    phi = compute_phi(u, spec.coupling)._release()
    lap = apply_laplacian(u)
    w2n = lp_norm(lap, 3.0)
    if w2n > radius:
        t = radius / w2n
        u = t * u
        phi *= t * t
        lap = apply_laplacian(u)
        w2n = lp_norm(lap, 3.0)
    return _state(u, phi, lap, w2n, spec)


def energy(s: FieldState) -> float:
    """The functional at an evaluated field, kinetic + coupling - power -
    forcing of the terms its state holds."""
    kinetic, coupling, power, forcing = s.terms
    return kinetic + coupling - power - forcing


def gradient_field(u: ScalarField, lap: ScalarField,
                   rhs: ScalarField) -> tuple[ScalarField, ScalarField, float, float]:
    """(g, residual, residual_norm, rhs_norm) of u from lap = -Delta_h u and
    rhs = rhs(u): the Sobolev gradient g = u - T(u), with T(u) =
    (-Delta_h)^-1 rhs the auxiliary map, the strong residual lap - rhs with
    its L3 norm, and ||rhs||_3; one solve.

    g is the Riesz representative of the residual in the discrete H1 inner
    product, since (-Delta_h)^-1 (-Delta_h u - rhs) = u - T(u). So
    -Delta_h g = lap - rhs up to solve rounding: verify reads
    ||grad g||^2 = <lap - rhs, g> h^3 with no gradient pass. lap and rhs
    must be arrays the caller made and alone holds, and both are gone
    afterwards: the residual is written into lap's array, and once rhs's L3
    norm is taken the solve runs in rhs's own buffer, where g = u - T(u) is
    formed, so it adds one buffer.
    """
    residual = lap._release()
    np.subtract(residual, rhs.values, out=residual)
    residual = ScalarField._own(u.grid, residual)
    rhs_norm = lp_norm(rhs, 3.0)
    g = solve_dirichlet_poisson(rhs, overwrite=True).field._release()
    np.subtract(u.values, g, out=g)
    return ScalarField._own(u.grid, g), residual, lp_norm(residual, 3.0), rhs_norm
