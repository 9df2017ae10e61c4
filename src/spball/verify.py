"""Fixed-point verification that a minimizer is a discrete weak solution.

Everything is recomputed from the candidate field alone; the minimizer's
convergence flags are never trusted. The candidate is evaluated once, and
every check reads that state: the auxiliary problem replays the equation's
right-hand side through the Poisson solver, and the candidate is accepted
when the auxiliary solution coincides with it in the relative H1 seminorm,
the strong residual is small against the forcing, the variational
inequality's infimum over the whole ball, taken in closed form, is not
negative beyond a slack, and the potential's structural properties hold.
minimize stops on fixed_point_residual and pde_residual at FP_THRESHOLD and
PDE_THRESHOLD, so a run it calls converged passes those two gates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ball import BallSpec
from .energy import FieldState, ProblemSpec, evaluate, strong_residual
from .errors import OutsideBallError
from .grid import (
    ScalarField,
    first_eigenpair,
    grad_l2_norm,
    h1_inner,
    lp_norm,
    w2n_norm,
)
from .poisson import compute_phi, solve_dirichlet_poisson

FP_THRESHOLD = 1e-6
PDE_THRESHOLD = 1e-5
AUX_BALL_SLACK = 1e-8
VI_SLACK = 1e-8
_PHI_SAFETY = 2.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the verification pipeline; passed is the conjunction of
    the component checks at the recorded thresholds; failed_checks names
    the ones that failed (fixed_point, pde, vi, aux_in_ball, phi_nonneg,
    phi_scaling, phi_bound), in that order."""

    fixed_point_rel_residual: float
    pde_rel_residual: float
    aux_in_ball: bool
    vi_gap: float
    phi_nonneg_ok: bool
    phi_scaling_ok: bool
    phi_bound_ok: bool
    fp_threshold: float
    pde_threshold: float
    passed: bool
    failed_checks: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        # JSON carries failed_checks as a list
        return cls(**{**data, "failed_checks": tuple(data["failed_checks"])})


def auxiliary_solve(s: FieldState, ball: BallSpec) -> ScalarField:
    """Solve the auxiliary problem -Delta v = rhs(u), v = T(u); v should return to the ball.

    A candidate outside the ball is rejected; an auxiliary solution that
    escapes the ball fails verify's aux_in_ball gate.
    """
    if not ball.contains(s.u):
        raise OutsideBallError(
            f"candidate w2n norm {w2n_norm(s.u):.6e} exceeds the radius {ball.radius:.6e}"
        )
    return solve_dirichlet_poisson(s.rhs).field


def fixed_point_residual(u: ScalarField, g: ScalarField) -> float:
    """Relative H1-seminorm size ||grad g|| / ||grad u|| of g = u - T(u)."""
    return grad_l2_norm(g) / max(grad_l2_norm(u), 1e-30)


def pde_residual(s: FieldState, spec: ProblemSpec) -> float:
    """L3 norm of the strong equation residual, relative to the forcing."""
    return lp_norm(strong_residual(s), 3) / max(lp_norm(spec.forcing, 3), 1e-300)


def variational_inequality_check(s: FieldState, aux: ScalarField) -> float:
    """Relative infimum over the ball of the variational-inequality gap
        gap(v) = 1/2||grad v||^2 - 1/2||grad u||^2 - sum(rhs(u) (v - u)) h^3,
    with aux = auxiliary_solve(s, ball).

    -Delta_h aux = rhs(u) exactly, so summation by parts gives
    gap(v) = 1/2||grad(v - aux)||^2 - 1/2||grad(u - aux)||^2 for every v.
    Its infimum over the ball is therefore -1/2||grad(u - aux)||^2, attained
    at v = aux when aux is in the ball (gated as aux_in_ball) and a lower
    bound otherwise. Returned relative to 1/2||grad u||^2.
    """
    d = s.u - aux
    return -0.5 * h1_inner(d, d) / max(0.5 * h1_inner(s.u, s.u), 1e-300)


def _phi_bound_constant(spec: ProblemSpec) -> float:
    """Grid-calibrated constant for ||grad phi_u|| <= C ||grad u||^2.

    Calibrated on the first eigenfunction, the smooth extremal shape that
    maximizes the ratio, inflated by a safety factor. The ratio is scale
    invariant, so the amplitude is irrelevant.
    """
    e1, _ = first_eigenpair(spec.grid)
    phi = compute_phi(e1, spec.coupling)
    return max(_PHI_SAFETY * (grad_l2_norm(phi) / grad_l2_norm(e1) ** 2), 1e-30)


def phi_property_check(
    s: FieldState, spec: ProblemSpec, t: float = 2.0
) -> tuple[bool, bool, bool]:
    """Check the potential's structure: sign, quadratic scaling, gradient bound.

    Returns (nonneg_ok, scaling_ok, bound_ok):
      nonneg:  min phi_u >= -1e-8 * max(1, ||phi_u||_inf)
      scaling: ||phi_{t u} - t^2 phi_u||_2 <= 1e-9 ||phi_u||_2 (skipped if phi_u = 0)
      bound:   ||grad phi_u|| <= C_grid ||grad u||^2 with the calibrated constant
    """
    if not t >= 0.0:
        raise ValueError(f"scaling factor must be nonnegative, got {t}")
    phi = s.phi
    phi_t = compute_phi(t * s.u, spec.coupling)

    nonneg_ok = float(phi.values.min()) >= -1e-8 * max(1.0, float(np.abs(phi.values).max()))

    base = lp_norm(phi, 2)
    if base == 0.0:
        scaling_ok = True
    else:
        scaling_ok = lp_norm(phi_t - t * t * phi, 2) <= 1e-9 * base

    bound_ok = grad_l2_norm(phi) <= _phi_bound_constant(spec) * grad_l2_norm(s.u) ** 2 + 1e-30
    return nonneg_ok, scaling_ok, bound_ok


def verify(
    u: ScalarField,
    spec: ProblemSpec,
    ball: BallSpec,
    fp_threshold: float = FP_THRESHOLD,
    pde_threshold: float = PDE_THRESHOLD,
) -> VerificationReport:
    """Full verification of a candidate minimizer. One report, no shortcuts."""
    s = evaluate(u, spec)
    aux = auxiliary_solve(s, ball)
    aux_in_ball = w2n_norm(aux) <= ball.radius + AUX_BALL_SLACK

    fp_res = fixed_point_residual(u, u - aux)
    pde_res = pde_residual(s, spec)
    vi_gap = variational_inequality_check(s, aux)
    nonneg_ok, scaling_ok, bound_ok = phi_property_check(s, spec)

    gates = {
        "fixed_point": fp_res <= fp_threshold,
        "pde": pde_res <= pde_threshold,
        "vi": vi_gap >= -VI_SLACK,
        "aux_in_ball": aux_in_ball,
        "phi_nonneg": nonneg_ok,
        "phi_scaling": scaling_ok,
        "phi_bound": bound_ok,
    }
    failed = tuple(name for name, ok in gates.items() if not ok)
    return VerificationReport(
        fixed_point_rel_residual=fp_res,
        pde_rel_residual=pde_res,
        aux_in_ball=aux_in_ball,
        vi_gap=vi_gap,
        phi_nonneg_ok=nonneg_ok,
        phi_scaling_ok=scaling_ok,
        phi_bound_ok=bound_ok,
        fp_threshold=fp_threshold,
        pde_threshold=pde_threshold,
        passed=not failed,
        failed_checks=failed,
    )
