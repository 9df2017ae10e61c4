"""Verifier tests: auxiliary solve against a dense oracle, residual
definitions, the closed-form variational inequality gap against the old probe
family with a negative control, potential structure checks, and the five
gates in their order."""

import json
import math
import sys
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spball.verify as verify_module
from spball import (
    OutsideBallError,
    ScalarField,
    build_grid,
    first_eigenpair,
)
from spball.ball import BallSpec, estimate_constants
from spball.cli import main
from spball.energy import FieldState, ProblemSpec, _signed_power, evaluate
from spball.grid import neg_laplacian_array
from spball.minimize import minimize
from spball.poisson import compute_phi, solve_dirichlet_poisson
from spball.runner import load_report
from spball.sampling import smoothed_random_fields
from spball.verify import (
    VerificationReport,
    fixed_point_residual,
    pde_residual,
    phi_property_check,
    verify,
)

from conftest import (
    ball_samples,
    dense_neg_laplacian,
    equation_rhs,
    grad_l2_norm,
    h1_inner,
    l2_inner,
    random_field,
    standard_problem,
    w2n_norm,
)


@pytest.fixture(scope="module")
def solved_problem():
    spec, ball, mode = standard_problem(n=8, p=7.0)
    res = minimize(spec, ball, mode)
    assert res.stop_reason == "fixed_point"
    return spec, ball, res


# ---------------------------------------------------------------- auxiliary solve


def test_auxiliary_solve_zero_candidate_inverts_forcing():
    # at u = 0 the right-hand side is the forcing alone, and T(0) = 0 - g
    spec, ball, mode = standard_problem(n=6, p=3.0)
    s = evaluate(ScalarField.zeros(spec.grid), spec)
    aux = s.u - s.g
    direct = solve_dirichlet_poisson(spec.forcing).field
    assert np.array_equal(aux.values, direct.values)


def test_auxiliary_solve_dense_oracle(rng):
    spec, ball, mode = standard_problem(n=4, p=3.0)
    u = (0.1 * ball.radius / 1.0) * random_field(spec.grid, rng, scale=0.05)
    a = dense_neg_laplacian(4)
    phi = np.linalg.solve(a, (spec.coupling.values * u.values**2).ravel())
    rhs = (
        -spec.coupling.values.ravel() * phi * u.values.ravel()
        + _signed_power(u.values, spec.p).ravel()
        + spec.forcing.values.ravel()
    )
    expected = np.linalg.solve(a, rhs).reshape(spec.grid.shape)
    s = evaluate(u, spec)
    aux = s.u - s.g
    assert_allclose(aux.values, expected, atol=1e-9 * np.abs(expected).max())


def test_auxiliary_solve_rejects_candidate_outside_ball():
    spec, ball, mode = standard_problem(n=6)
    e1, _ = first_eigenpair(spec.grid)
    outside = (3.0 * ball.radius / w2n_norm(e1)) * e1
    with pytest.raises(OutsideBallError):
        verify(evaluate(outside, spec), spec, ball)


def test_escaping_auxiliary_image_fails_aux_in_ball():
    # a hand-built ball with a tiny radius: the image of 0 is the forcing
    # inverse, far larger than the radius; the aux_in_ball gate names it,
    # and no warning is raised
    g = build_grid(6)
    spec = ProblemSpec(
        p=3.0,
        coupling=ScalarField(g, np.ones(g.shape)),
        forcing=ScalarField(g, np.ones(g.shape)),
    )
    tiny = BallSpec(1.0, 1.0, 1.0, 0.01, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = evaluate(ScalarField.zeros(g), spec)
        report = verify(s, spec, tiny)
    assert w2n_norm(s.u - s.g) > tiny.radius
    assert "aux_in_ball" in report.failed_checks


def test_aux_in_ball_is_relative_to_the_radius():
    # on a ball of radius 1e-20, the image of u = 0 under a forcing of 1e-13 e1
    # has ball norm ||f||_3, about 3e-14: far outside, which an absolute 1e-8
    # slack on the radius let pass
    g = build_grid(6)
    e1, _ = first_eigenpair(g)
    spec = ProblemSpec(p=3.0, coupling=ScalarField.constant(g, 1.0),
                       forcing=1e-13 * e1)
    ball = BallSpec(1e39, 1e39, 1.0, 1e-20, 3.0)
    s = evaluate(ScalarField.zeros(g), spec)
    assert s.rhs_norm > 1e6 * ball.radius
    assert "aux_in_ball" in verify(s, spec, ball).failed_checks


# ---------------------------------------------------------------- residuals


def test_fixed_point_residual_basics(rng):
    # the documented contract of the state's gradient: -Delta_h g = lap - rhs,
    # so the pairing <lap - rhs, g> h^3 is ||grad g||^2, the gradient pass it
    # replaces
    spec, _, _ = standard_problem(n=5, p=3.0)
    for scale in (1.0, 1e-3, 1e2):
        s = evaluate(random_field(spec.grid, rng, scale=scale), spec)
        assert_allclose(fixed_point_residual(s), grad_l2_norm(s.g) / grad_l2_norm(s.u),
                        rtol=1e-9)
    # u = 0 with zero forcing is a fixed point: T(0) = 0 and the residual is exactly 0
    diag = replace(spec, forcing=ScalarField.zeros(spec.grid))
    s = evaluate(ScalarField.zeros(spec.grid), diag)
    assert not np.any(s.g.values)
    assert fixed_point_residual(s) == 0.0


@pytest.mark.parametrize("sigma", [1e-170, 1e-60, 1e150])
def test_fixed_point_residual_is_scale_free(rng, sigma):
    # u, g, the residual and their norms times sigma, the potential's range
    # times sigma^2 and each energy term times sigma to its degree: at
    # 1e-170 both squares fall below the normal range and are taken again on
    # rescaled arrays, ||grad u||^2 by the stencil of the rescaled u; at
    # 1e-60 and 1e150 they stay normal and the quotient alone cancels sigma
    spec, _, _ = standard_problem(n=6, p=3.0)
    s = evaluate(random_field(spec.grid, rng), spec)
    degrees = (2, 4, 4, 1)  # 2, 4, p + 1 and 1 at p = 3
    scaled = FieldState(sigma * s.u,
                        tuple(term * math.prod([sigma] * d) for term, d in zip(s.terms, degrees)),
                        tuple(sigma * sigma * x for x in s.phi_range), sigma * s.w2n,
                        sigma * s.g, sigma * s.residual, sigma * s.residual_norm,
                        sigma * s.rhs_norm)
    assert (scaled.grad_sq < sys.float_info.min) == (sigma == 1e-170)
    assert_allclose(fixed_point_residual(scaled), fixed_point_residual(s),
                    rtol=1e-12, atol=0.0)


def test_fixed_point_gate_fails_on_the_zero_state(tmp_path):
    # a 1e-200 forcing ends the descent at u = 0, where the pairing
    # <lap - rhs, g> h^3, about 1e-400, underflows; the residual reads inf
    # there, so fixed_point fails beside pde
    config = {"grid_n": 8, "p": 7, "coupling": {"constant": 1}, "forcing": {"constant": 1e-200}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    report = load_report(tmp_path / "out" / "report.json")
    assert report.verification.failed_checks == ("fixed_point", "pde")
    assert report.verification.fixed_point_rel_residual == math.inf


def test_pde_gate_fails_on_the_zero_state_of_a_tiny_forcing(tmp_path):
    # a 1e-305 forcing also ends at u = 0, where the residual is -f: relative
    # to the forcing it is 1 however small f is, so pde fails beside fixed_point
    config = {"grid_n": 8, "p": 7, "coupling": {"constant": 1}, "forcing": {"constant": 1e-305}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    report = load_report(tmp_path / "out" / "report.json")
    assert report.verification.failed_checks == ("fixed_point", "pde")
    assert abs(report.verification.pde_rel_residual - 1.0) <= 1e-12


def test_pde_residual_against_a_zero_forcing(rng):
    # no forcing to compare with: a zero residual reads 0, any other inf
    g = build_grid(5)
    spec = ProblemSpec(p=3.0, coupling=ScalarField.constant(g, 1.0),
                       forcing=ScalarField.zeros(g))
    assert pde_residual(evaluate(ScalarField.zeros(g), spec), spec) == 0.0
    assert pde_residual(evaluate(random_field(g, rng), spec), spec) == math.inf


def test_pde_residual_is_one_at_zero_candidate():
    spec, _, _ = standard_problem(n=5, p=3.0)
    assert pde_residual(evaluate(ScalarField.zeros(spec.grid), spec), spec) == 1.0


def test_pde_residual_vanishes_on_manufactured_solution():
    # build the forcing so that a scaled eigenfunction solves the equation
    # exactly (the solve is deterministic, so the potential cancels bitwise)
    g = build_grid(6)
    coupling = ScalarField(g, np.ones(g.shape))
    e1, _ = first_eigenpair(g)
    star = 0.05 * e1
    phi = compute_phi(star, coupling)
    f_vals = (
        neg_laplacian_array(star.values, g.h)
        + coupling.values * phi.values * star.values
        - _signed_power(star.values, 3.0)
    )
    assert f_vals.min() > 0.0
    spec = ProblemSpec(p=3.0, coupling=coupling, forcing=ScalarField(g, f_vals))
    assert pde_residual(evaluate(star, spec), spec) <= 1e-12


def test_pde_residual_small_after_minimize(solved_problem):
    spec, ball, res = solved_problem
    assert pde_residual(evaluate(res.minimizer, spec), spec) <= 1e-5


# ---------------------------------------------------------------- variational inequality


def test_vi_no_violations_at_minimizer(solved_problem):
    spec, ball, res = solved_problem
    s = evaluate(res.minimizer, spec)
    fp = fixed_point_residual(s)
    report = verify(s, spec, ball)
    assert report.fixed_point_rel_residual == fp
    # the gap's infimum over the ball is -fp^2, relative to 1/2||grad u||^2
    assert fp * fp <= 1e-8


def test_report_holds_the_fixed_point_residual(solved_problem, rng):
    # one pairing: the report's residual is fixed_point_residual's bit for
    # bit, at the minimizer, at small random fields and at the zero candidate,
    # whose ||grad u|| = 0 beside a nonzero g makes the residual inf
    spec, ball, res = solved_problem
    zero_spec, zero_ball, _ = standard_problem(n=6, p=3.0)
    zero = evaluate(ScalarField.zeros(zero_spec.grid), zero_spec)
    cases = [(res.state, spec, ball), (zero, zero_spec, zero_ball)]
    for _ in range(3):
        u = random_field(spec.grid, rng)
        u = (0.5 * ball.radius / w2n_norm(u)) * u
        cases.append((evaluate(u, spec), spec, ball))
    for s, case_spec, case_ball in cases:
        fp = fixed_point_residual(s)
        report = verify(s, case_spec, case_ball)
        assert report.fixed_point_rel_residual == fp
    assert fixed_point_residual(zero) == math.inf
    assert verify(zero, zero_spec, zero_ball).fixed_point_rel_residual == math.inf


def test_vi_detects_non_minimizer():
    # the zero field with positive forcing is far from stationary: its own
    # auxiliary image is a lower-energy direction, so the gap is negative.
    # The gap is -fp^2, so the fixed_point gate is what rejects it
    spec, ball, mode = standard_problem(n=6, p=3.0)
    report = verify(evaluate(ScalarField.zeros(spec.grid), spec), spec, ball)
    fp = report.fixed_point_rel_residual
    assert fp * fp > 1e-8
    assert not report.passed
    assert "fixed_point" in report.failed_checks
    assert "vi" not in report.failed_checks


@pytest.mark.parametrize("n, p", [(16, 7.0), (32, 3.0)])
@pytest.mark.parametrize("scale", [1.0, 0.9])
def test_vi_gap_is_the_infimum_over_the_old_probe_family(n, p, scale):
    # the probes the sampled audit used, with its per-probe gap written inline:
    # the gap at aux equals the closed form and no probe falls below it
    spec, ball, mode = standard_problem(n=n, p=p, fraction=0.5)
    u = scale * minimize(spec, ball, mode).minimizer
    rhs = equation_rhs(u, spec)
    s = evaluate(u, spec)
    aux = solve_dirichlet_poisson(rhs).field
    half_u = 0.5 * h1_inner(u, u)
    probes = [u, aux, ScalarField.zeros(u.grid), 0.5 * u, evaluate(2.0 * u, spec, ball.radius).u]
    # seed 3 plus the old verifier seed offset 1_000_003
    probes.extend(ball_samples(u.grid, 64, 1_000_006, ball.radius))
    # relative to 1/2||grad u||^2, the scale of the terms the per-probe gap cancels
    gaps = [(0.5 * h1_inner(v, v) - half_u - l2_inner(rhs, v - u)) / half_u for v in probes]

    fp = fixed_point_residual(s)
    vi_gap = -(fp * fp)
    assert vi_gap <= 0.0
    assert abs(gaps[1] - vi_gap) <= 1e-12
    assert min(gaps) >= vi_gap - 1e-12


# ---------------------------------------------------------------- potential structure


def test_phi_property_check_standard(solved_problem):
    spec, ball, res = solved_problem
    assert phi_property_check(evaluate(res.minimizer, spec), ball) == (True, True)


def test_phi_property_check_reuses_a_given_potential(solved_problem):
    spec, ball, res = solved_problem
    s = evaluate(res.minimizer, spec)
    assert phi_property_check(s, ball) == (True, True)
    # the checks read the potential's range they are given: negated, its
    # maximum is the negated minimum
    low, high = s.phi_range
    assert not phi_property_check(replace(s, phi_range=(-high, -low)), ball)[0]


def test_phi_property_check_zero_candidate():
    spec, ball, mode = standard_problem(n=5, p=3.0)
    zero = evaluate(ScalarField.zeros(spec.grid), spec)
    assert phi_property_check(zero, ball) == (True, True)
    e1, _ = first_eigenpair(spec.grid)
    assert phi_property_check(evaluate(0.1 * e1, spec), ball) == (True, True)


def test_phi_nonneg_is_relative_to_the_potential():
    # a minimum of -1e-101 against a maximum of 1e-100 is a tenth of the
    # potential's size, a sign error at any scale; an absolute floor of 1e-8
    # passed it
    spec, ball, mode = standard_problem(n=5, p=3.0)
    s = evaluate(ScalarField.zeros(spec.grid), spec)
    assert not phi_property_check(replace(s, phi_range=(-1e-101, 1e-100)), ball)[0]
    assert phi_property_check(replace(s, phi_range=(-1e-109, 1e-100)), ball)[0]


def test_phi_bound_has_no_absolute_floor():
    # at the scale 1e-20 of u, ||grad phi_u|| is near 1e-40, far above a bound
    # of 1e-300 ||grad u||^2; an absolute 1e-30 added to the bound passed it
    g = build_grid(6)
    e1, _ = first_eigenpair(g)
    spec = ProblemSpec(p=3.0, coupling=ScalarField.constant(g, 1.0),
                       forcing=ScalarField.zeros(g))
    s = evaluate(1e-20 * e1, spec)
    assert 0.0 < 4.0 * s.terms[1] < 1e-60
    assert not phi_property_check(s, BallSpec(1.0, 1.0, 1e-300, 0.1, 3.0))[1]
    assert phi_property_check(s, estimate_constants(3.0, spec.coupling)[0]) == (True, True)


def test_phi_property_check_zero_coupling(rng):
    g = build_grid(5)
    spec = ProblemSpec(
        p=3.0,
        coupling=ScalarField.zeros(g),
        forcing=ScalarField(g, np.ones(g.shape)),
    )
    ball, _ = estimate_constants(spec.p, spec.coupling)
    assert phi_property_check(evaluate(random_field(g, rng), spec), ball) == (True, True)


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("coupling_kind", ["constant", "sine_bump"])
def test_phi_bound_calibrates_on_the_extremal_eigenfunction(n, coupling_kind):
    # the eigenfunction's ratio ||grad phi_u|| / ||grad u||^2 dominates the
    # 32 smoothed random fields the calibration used to sample as well. The
    # ball takes it by the pairings the phi_bound gate reads from a state,
    # ||grad phi_u||^2 = 4 x coupling term and ||grad u||^2 = 2 x kinetic term
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = ScalarField(g, np.ones(g.shape)) if coupling_kind == "constant" else 1e8 * e1

    def ratio(w):
        return grad_l2_norm(compute_phi(w, coupling)) / grad_l2_norm(w) ** 2

    s = evaluate(e1, ProblemSpec(p=3.0, coupling=coupling, forcing=e1))
    extremal = np.sqrt(4.0 * s.terms[1]) / s.grad_sq
    potential_constant = estimate_constants(3.0, coupling)[0].potential_constant
    # the ball takes ||grad e1||^2 as a sum over one axis, the state by the stencil
    assert_allclose(potential_constant, 2.0 * extremal, rtol=1e-13, atol=0.0)
    assert_allclose(extremal, ratio(e1), rtol=1e-13)
    for w in smoothed_random_fields(g, 32, seed=20260814):
        assert ratio(w) <= potential_constant / 2.0


# ---------------------------------------------------------------- full report


def test_verify_passes_on_solved_problem(solved_problem):
    spec, ball, res = solved_problem
    report = verify(res.state, spec, ball)
    assert report.passed
    assert report.fixed_point_rel_residual <= verify_module.FP_THRESHOLD
    assert report.pde_rel_residual <= verify_module.PDE_THRESHOLD
    fp = report.fixed_point_rel_residual
    assert fp * fp <= 1e-8
    assert report.failed_checks == ()


def test_verify_fails_on_non_solution():
    spec, ball, mode = standard_problem(n=6, p=3.0)
    report = verify(evaluate(ScalarField.zeros(spec.grid), spec), spec, ball)
    assert not report.passed
    assert report.pde_rel_residual == 1.0
    assert "pde" in report.failed_checks


def test_verify_deterministic(solved_problem):
    spec, ball, res = solved_problem
    a = verify(evaluate(res.minimizer, spec), spec, ball)
    b = verify(evaluate(res.minimizer, spec), spec, ball)
    assert a == b


def test_report_round_trip(solved_problem):
    spec, ball, res = solved_problem
    report = verify(res.state, spec, ball)
    # load_report reads the block as VerificationReport(**block)
    assert VerificationReport(**asdict(report)) == report


def test_failed_checks_name_the_failing_gate_and_round_trip(solved_problem, monkeypatch):
    # verify reads the threshold at call time
    spec, ball, res = solved_problem
    monkeypatch.setattr(verify_module, "FP_THRESHOLD", 1e-30)
    report = verify(res.state, spec, ball)
    assert report.fixed_point_rel_residual > verify_module.FP_THRESHOLD == 1e-30
    assert not report.passed
    assert report.failed_checks == ("fixed_point",)
    restored = VerificationReport(**json.loads(json.dumps(asdict(report))))
    assert restored == report
    assert restored.failed_checks == ("fixed_point",)


@pytest.mark.parametrize("failed_checks", [
    ("bogus",),
    ("pde", "fixed_point"),
    ("pde", "pde"),
])
def test_verification_report_checks_its_verdict(solved_problem, failed_checks):
    # the verdict, failed_checks, names gates of GATES, each once and in that order
    spec, ball, res = solved_problem
    report = verify(res.state, spec, ball)
    with pytest.raises(ValueError, match="failed_checks must name"):
        replace(report, failed_checks=failed_checks)


def test_passed_is_read_from_failed_checks(solved_problem):
    # the report stores the two residuals and failed_checks; passed is no
    # field of its own, so nothing can set it beside failed_checks
    spec, ball, res = solved_problem
    report = verify(res.state, spec, ball)
    assert [f.name for f in fields(VerificationReport)] == [
        "fixed_point_rel_residual", "pde_rel_residual", "failed_checks"]
    assert report.passed is True and report.failed_checks == ()
    failed = replace(report, failed_checks=["pde"])  # JSON carries a list
    assert failed.passed is False and failed.failed_checks == ("pde",)
    with pytest.raises(TypeError, match="passed"):
        replace(report, passed=False)


def test_failed_checks_list_the_five_gates_in_order():
    # a candidate that fails every gate: far from a fixed point, an image
    # outside a hand-built ball, a negated potential and a vanishing bound
    g = build_grid(6)
    e1, _ = first_eigenpair(g)
    spec = ProblemSpec(p=3.0, coupling=ScalarField.constant(g, 1.0),
                       forcing=ScalarField(g, np.ones(g.shape)))
    ball = BallSpec(1.0, 1.0, 1e-300, 0.1, 3.0)
    s = evaluate((0.05 / w2n_norm(e1)) * e1, spec)
    low, high = s.phi_range
    report = verify(replace(s, phi_range=(-high, -low)), spec, ball)
    assert report.failed_checks == ("fixed_point", "pde", "aux_in_ball", "phi_nonneg",
                                    "phi_bound")
    assert report.failed_checks == verify_module.GATES
    assert not hasattr(report, "phi_scaling_ok")


def test_verify_solve_count(solved_problem, solve_counter):
    # guards against a re-added solve: the state, T(u) and the phi-bound
    # constant are handed over, so verify solves nothing
    spec, ball, res = solved_problem
    report, count = solve_counter(verify, res.state, spec, ball)
    assert report.passed
    assert count == 0
