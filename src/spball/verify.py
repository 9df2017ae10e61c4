"""Fixed-point verification that a minimizer is a discrete weak solution.

Everything is recomputed from the candidate field alone; the minimizer's
convergence flags are never trusted. The auxiliary problem replays the
equation's right-hand side through the Poisson solver, and the candidate is
accepted when the auxiliary solution coincides with it in the relative H1
seminorm, the strong residual is small against the forcing, the sampled
variational inequality shows no violations, and the potential's structural
properties hold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .ball import BallSpec
from .energy import ProblemSpec, equation_rhs, strong_residual
from .errors import OutsideBallError
from .grid import (
    ScalarField,
    apply_laplacian,
    first_eigenpair,
    grad_l2_norm,
    h1_inner,
    l2_inner,
    lp_norm,
    w2n_norm,
)
from .minimize import retract_to_ball
from .poisson import compute_phi, solve_dirichlet_poisson
from .sampling import ball_samples, smoothed_random_fields

AUX_BALL_SLACK = 1e-8
VI_SLACK = 1e-8
_PHI_CALIBRATION_SEED = 20260814
_PHI_CALIBRATION_COUNT = 32
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
    vi_violations: int
    vi_samples: int
    phi_nonneg_ok: bool
    phi_scaling_ok: bool
    phi_bound_ok: bool
    closure_constant: float
    closure_ok: bool
    coincidence_ok: bool
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


def auxiliary_solve(
    u: ScalarField, spec: ProblemSpec, ball: BallSpec, rhs_field: ScalarField | None = None
) -> ScalarField:
    """Solve the auxiliary problem -Delta v = rhs(u); v should return to the ball.

    A candidate outside the ball is rejected; an auxiliary solution that
    escapes the ball only signals overly optimistic constants and is
    reported via a warning, not an error. rhs_field, here and in the checks
    below, is an already computed equation_rhs(u, spec).
    """
    spec.check_field(u)
    if not ball.contains(u):
        raise OutsideBallError(
            f"candidate w2n norm {w2n_norm(u):.6e} exceeds the radius {ball.radius:.6e}"
        )
    rhs_field = equation_rhs(u, spec) if rhs_field is None else rhs_field
    aux = solve_dirichlet_poisson(rhs_field).field
    if w2n_norm(aux) > ball.radius + AUX_BALL_SLACK:
        warnings.warn(
            "auxiliary solution left the constraint ball "
            f"({w2n_norm(aux):.6e} > {ball.radius:.6e}); the estimated constants "
            "may be too optimistic for this problem",
            stacklevel=2,
        )
    return aux


def fixed_point_residual(u: ScalarField, aux: ScalarField) -> float:
    """Relative H1-seminorm distance between the candidate and its image."""
    return grad_l2_norm(aux - u) / max(grad_l2_norm(u), 1e-30)


def pde_residual(u: ScalarField, spec: ProblemSpec, rhs_field: ScalarField | None = None) -> float:
    """L3 norm of the strong equation residual, relative to the forcing."""
    num = lp_norm(strong_residual(u, spec, rhs_field), 3)
    return num / max(lp_norm(spec.forcing, 3), 1e-300)


def variational_inequality_check(
    u: ScalarField,
    spec: ProblemSpec,
    ball: BallSpec,
    samples: int,
    seed: int,
    aux: ScalarField | None = None,
    rhs_field: ScalarField | None = None,
) -> int:
    """Count violations of the inequality
        1/2||grad v||^2 - 1/2||grad u||^2 >= sum(rhs(u) (v - u)) h^3
    over deterministic probes plus `samples` random fields in the ball.

    The slack is 1e-8 * (1 + |lhs| + |rhs|) per sample.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rhs_field = equation_rhs(u, spec) if rhs_field is None else rhs_field
    if aux is None:
        aux = auxiliary_solve(u, spec, ball, rhs_field)
    half_u = 0.5 * h1_inner(u, u)

    probes = [
        u,
        aux,
        ScalarField.zeros(spec.grid),
        0.5 * u,
        retract_to_ball(2.0 * u, ball.radius),
    ]
    probes.extend(ball_samples(spec.grid, samples, seed, ball.radius))

    violations = 0
    for v in probes:
        lhs = 0.5 * h1_inner(v, v) - half_u
        rhs = l2_inner(rhs_field, v - u)
        if lhs < rhs - VI_SLACK * (1.0 + abs(lhs) + abs(rhs)):
            violations += 1
    return violations


def vi_probe_count(samples: int) -> int:
    """Total probes evaluated by variational_inequality_check."""
    return samples + 5


def _phi_bound_constant(spec: ProblemSpec) -> float:
    """Grid-calibrated constant for ||grad phi_u|| <= C ||grad u||^2.

    Calibrated on a fixed batch: the first eigenfunction (the smooth
    extremal shape, which maximizes the ratio) plus smoothed random fields,
    inflated by a safety factor. The ratio is scale invariant, so amplitudes
    are irrelevant.
    """
    family = [first_eigenpair(spec.grid)[0]]
    family.extend(
        smoothed_random_fields(spec.grid, _PHI_CALIBRATION_COUNT, _PHI_CALIBRATION_SEED)
    )
    best = 0.0
    for w in family:
        denom = grad_l2_norm(w) ** 2
        if denom == 0.0:
            continue
        phi = compute_phi(w, spec.coupling)
        best = max(best, grad_l2_norm(phi) / denom)
    return max(_PHI_SAFETY * best, 1e-30)


def phi_property_check(
    u: ScalarField, spec: ProblemSpec, t: float = 2.0, phi: ScalarField | None = None
) -> tuple[bool, bool, bool]:
    """Check the potential's structure: sign, quadratic scaling, gradient bound.

    Returns (nonneg_ok, scaling_ok, bound_ok):
      nonneg:  min phi_u >= -1e-8 * max(1, ||phi_u||_inf)
      scaling: ||phi_{t u} - t^2 phi_u||_2 <= 1e-9 ||phi_u||_2 (skipped if phi_u = 0)
      bound:   ||grad phi_u|| <= C_grid ||grad u||^2 with the calibrated constant

    phi, when given, must be compute_phi(u, spec.coupling); it saves a solve.
    """
    if not t >= 0.0:
        raise ValueError(f"scaling factor must be nonnegative, got {t}")
    spec.check_field(u)
    if phi is None:
        phi = compute_phi(u, spec.coupling)
    phi_t = compute_phi(t * u, spec.coupling)

    nonneg_ok = float(phi.values.min()) >= -1e-8 * max(1.0, float(np.abs(phi.values).max()))

    base = lp_norm(phi, 2)
    if base == 0.0:
        scaling_ok = True
    else:
        scaling_ok = lp_norm(phi_t - t * t * phi, 2) <= 1e-9 * base

    bound_ok = grad_l2_norm(phi) <= _phi_bound_constant(spec) * grad_l2_norm(u) ** 2 + 1e-30
    return nonneg_ok, scaling_ok, bound_ok


def coincidence_check(
    u: ScalarField, aux: ScalarField, spec: ProblemSpec, rhs_field: ScalarField | None = None
) -> tuple[float, float, bool]:
    """Evaluate the two inequalities that force u and aux to coincide.

    Returns (vi_gap, solve_defect, ok): vi_gap is the variational-inequality
    margin at v = aux, solve_defect is the auxiliary equation's pairing
    defect in direction aux - u, and the exact algebraic identity

        1/2 ||grad(aux - u)||^2 = solve_defect - vi_gap

    means the squared distance is forced below |solve_defect| plus any
    negative part of the gap. ok records that forced conclusion.
    """
    rhs_field = equation_rhs(u, spec) if rhs_field is None else rhs_field
    diff = aux - u
    vi_gap = 0.5 * h1_inner(aux, aux) - 0.5 * h1_inner(u, u) - l2_inner(rhs_field, diff)
    solve_defect = h1_inner(aux, diff) - l2_inner(rhs_field, diff)
    half_sq = 0.5 * h1_inner(diff, diff)
    slack = 1e-10 * (1.0 + abs(vi_gap) + abs(solve_defect) + h1_inner(u, u) + h1_inner(aux, aux))
    ok = half_sq <= abs(solve_defect) + max(-vi_gap, 0.0) + slack
    return vi_gap, solve_defect, ok


def closure_constant(u: ScalarField, spec: ProblemSpec) -> float:
    """A-priori constant C with pde_residual <= C * fixed_point_residual + solver slack.

    Chains the inverse estimates ||g||_3 <= h^(-1/2) ||g||_2 and
    ||Delta w||_2 <= sqrt(12)/h ||grad w||_2 on the discrete spaces.
    """
    h = spec.grid.h
    return math.sqrt(12.0) * h**-1.5 * grad_l2_norm(u) / max(lp_norm(spec.forcing, 3), 1e-300)


def verify(
    u: ScalarField,
    spec: ProblemSpec,
    ball: BallSpec,
    samples: int = 200,
    seed: int = 1,
    fp_threshold: float = 1e-6,
    pde_threshold: float = 1e-5,
) -> VerificationReport:
    """Full verification of a candidate minimizer. One report, no shortcuts."""
    phi_u = compute_phi(u, spec.coupling)  # once, shared by every check
    rhs_field = equation_rhs(u, spec, phi_u)
    aux = auxiliary_solve(u, spec, ball, rhs_field)
    aux_in_ball = w2n_norm(aux) <= ball.radius + AUX_BALL_SLACK

    fp_res = fixed_point_residual(u, aux)
    pde_res = pde_residual(u, spec, rhs_field)
    violations = variational_inequality_check(u, spec, ball, samples, seed, aux, rhs_field)
    nonneg_ok, scaling_ok, bound_ok = phi_property_check(u, spec, phi=phi_u)

    constant = closure_constant(u, spec)
    # measured auxiliary-solve residual, carried to L3 by the inverse estimate
    solver_slack = (
        spec.grid.h**-0.5
        * lp_norm(apply_laplacian(aux) - rhs_field, 2)
        / max(lp_norm(spec.forcing, 3), 1e-300)
    )
    closure_ok = pde_res <= constant * fp_res + 2.0 * solver_slack + 1e-30
    _, _, coincidence_ok = coincidence_check(u, aux, spec, rhs_field)

    gates = {
        "fixed_point": fp_res <= fp_threshold,
        "pde": pde_res <= pde_threshold,
        "vi": violations == 0,
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
        vi_violations=violations,
        vi_samples=vi_probe_count(samples),
        phi_nonneg_ok=nonneg_ok,
        phi_scaling_ok=scaling_ok,
        phi_bound_ok=bound_ok,
        closure_constant=constant,
        closure_ok=closure_ok,
        coincidence_ok=coincidence_ok,
        fp_threshold=fp_threshold,
        pde_threshold=pde_threshold,
        passed=not failed,
        failed_checks=failed,
    )
