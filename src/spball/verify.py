"""Fixed-point verification that a minimizer is a discrete weak solution.

verify reads the candidate's state s = evaluate(u), gradient included, as
the descent holds it at its last iterate; it runs no solve and never reads
the descent's stop_reason. failed_checks names the gates that fail, in
GATES order: the fixed-point residual (fixed_point_residual), the equation
residual (pde_residual), T(u) in the ball, and the potential's sign and
gradient bound (phi_property_check). minimize stops on the first two at
FP_THRESHOLD and PDE_THRESHOLD, through the same _residual_gates. Every
gate compares a floating-point number with its threshold, and nothing
encloses the rounding yet: a pass holds for the computed numbers, not as a
bound proved against rounding error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ball import BallSpec
from .energy import FieldState, ProblemSpec
from .errors import OutsideBallError
from .grid import neg_laplacian_array

FP_THRESHOLD = 1e-6
PDE_THRESHOLD = 1e-5
# verify's five gates, in the order failed_checks names them
GATES = ("fixed_point", "pde", "aux_in_ball", "phi_nonneg", "phi_bound")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the verification pipeline; failed_checks names the gates
    that failed, in GATES order, and passed means it is empty. The two
    residuals are the numbers the fixed_point and pde gates compare with
    FP_THRESHOLD and PDE_THRESHOLD. Construction checks all three: each
    residual is a number >= 0, inf included (a run that ends at u = 0 with
    f != 0), and failed_checks names those two gates exactly when their
    residuals fail.
    """

    fixed_point_rel_residual: float
    pde_rel_residual: float
    failed_checks: tuple[str, ...]

    def __post_init__(self):
        # JSON carries failed_checks as a list
        failed = tuple(self.failed_checks)
        object.__setattr__(self, "failed_checks", failed)
        if failed != tuple(gate for gate in GATES if gate in failed):
            raise ValueError(f"failed_checks must name gates of {GATES} in that order, "
                             f"got {list(failed)}")
        keys = ("fixed_point_rel_residual", "pde_rel_residual")
        for key in keys:
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
                raise ValueError(f"{key} must be a number >= 0, got {value!r}")
        oks = _residual_gates(self.fixed_point_rel_residual, self.pde_rel_residual)
        for key, gate, ok in zip(keys, GATES, oks):
            if ok == (gate in failed):
                raise ValueError(f"{key} {getattr(self, key)!r} {'passes' if ok else 'fails'} "
                                 f"its gate, but failed_checks {'names' if ok else 'omits'} "
                                 f"{gate}: {list(failed)}")

    @property
    def passed(self) -> bool:
        """The run's one verdict: no gate failed."""
        return not self.failed_checks


def _residual_gates(fp_res: float, pde_res: float) -> tuple[bool, bool]:
    """Whether the fixed_point and pde gates pass on these residuals; the
    thresholds are read at the call."""
    return fp_res <= FP_THRESHOLD, pde_res <= PDE_THRESHOLD


def fixed_point_residual(s: FieldState) -> float:
    """Relative H1-seminorm size ||grad g|| / ||grad u|| of g = u - T(u).

    The state's strong residual is -Delta_h g = -Delta_h u - rhs, so
    ||grad g||^2 = max(<-Delta_h u - rhs, g> h^3, 0) by summation by parts,
    exact up to rounding and with no gradient pass; ||grad u||^2 comes from
    the terms. The ratio is free of a common scale, so when either square is
    not a normal float both are taken again on the arrays over their
    largest magnitude, as lp_norm does, ||grad u||^2 as
    <-Delta_h v, v> h^3 of v = u / scale with the stencil; u = 0 beside
    g != 0 is inf, and g = 0 is 0.
    """
    g, residual = s.g.values, s.residual.values
    h3 = s.g.grid.h ** 3
    pair = float(np.vdot(residual, g)) * h3
    grad_sq = s.grad_sq
    if not all(sys.float_info.min <= abs(x) <= sys.float_info.max for x in (pair, grad_sq)):
        scale = max(float(np.abs(g).max()), float(np.abs(s.u.values).max()))
        if scale == 0.0:
            return 0.0
        pair = float(np.vdot(residual / scale, g / scale)) * h3
        v = s.u.values / scale
        grad_sq = float(np.vdot(neg_laplacian_array(v, s.u.grid.h), v)) * h3
    if grad_sq <= 0.0:
        return math.inf if pair > 0.0 else 0.0
    return math.sqrt(max(pair, 0.0)) / math.sqrt(grad_sq)


def pde_residual(s: FieldState, spec: ProblemSpec) -> float:
    """L3 norm of the strong equation residual, which the state holds,
    relative to the forcing's, both scale-free (lp_norm); for a zero forcing,
    0 if the residual is zero, else inf."""
    if spec.forcing_norm == 0.0:
        return 0.0 if s.residual_norm == 0.0 else math.inf
    return s.residual_norm / spec.forcing_norm


def phi_property_check(s: FieldState, ball: BallSpec) -> tuple[bool, bool]:
    """Check the potential's structure: sign and gradient bound.

    Returns (nonneg_ok, bound_ok):
      nonneg:  min phi_u >= -1e-8 ||phi_u||_inf
      bound:   ||grad phi_u|| <= ball.potential_constant ||grad u||^2
    Neither has an absolute term, so both read the same at every scale of u.
    The minimum and maximum of phi_u are the state's phi_range. Both
    gradient norms come from the state's terms: ||grad u||^2 is twice the
    kinetic term, and ||grad phi_u||^2 = <c u^2, phi_u> h^3 = 4 x coupling
    term by summation by parts against -Delta_h phi_u = c u^2.
    """
    low, high = s.phi_range
    nonneg_ok = low >= -1e-8 * max(-low, high)

    grad_phi = math.sqrt(max(4.0 * s.terms[1], 0.0))
    bound_ok = grad_phi <= ball.potential_constant * s.grad_sq
    return nonneg_ok, bound_ok


def verify(s: FieldState, spec: ProblemSpec, ball: BallSpec) -> VerificationReport:
    """Full verification of a candidate minimizer from its state s; it runs
    no solve.

    A candidate outside the ball is rejected with OutsideBallError; an
    auxiliary solution T(u) = u - g that escapes the ball fails aux_in_ball.
    Its ball norm ||-Delta_h T(u)||_3 is ||rhs(u)||_3, read from the state.
    Both memberships are ball.contains, relative to the radius.
    """
    if not ball.contains(s.w2n):
        raise OutsideBallError(
            f"candidate w2n norm {s.w2n:.6e} exceeds the radius {ball.radius:.6e}"
        )
    fp_res = fixed_point_residual(s)
    pde_res = pde_residual(s, spec)
    nonneg_ok, bound_ok = phi_property_check(s, ball)
    oks = (*_residual_gates(fp_res, pde_res), ball.contains(s.rhs_norm), nonneg_ok, bound_ok)
    failed = tuple(gate for gate, ok in zip(GATES, oks, strict=True) if not ok)
    return VerificationReport(
        fixed_point_rel_residual=fp_res,
        pde_rel_residual=pde_res,
        failed_checks=failed,
    )
