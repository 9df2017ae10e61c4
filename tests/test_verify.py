"""Verifier tests: auxiliary solve against a dense oracle, residual
definitions, the sampled variational inequality with a negative control,
potential structure checks, and the forced-coincidence identity."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spball import (
    OutsideBallError,
    ScalarField,
    build_grid,
    first_eigenpair,
    grad_l2_norm,
    lp_norm,
    w2n_norm,
)
from spball.ball import BallSpec, make_ball
from spball.energy import ProblemSpec, _signed_power
from spball.grid import neg_laplacian_array
from spball.minimize import minimize
from spball.poisson import PoissonSolution, compute_phi, solve_dirichlet_poisson
from spball.verify import (
    VerificationReport,
    auxiliary_solve,
    closure_constant,
    coincidence_check,
    fixed_point_residual,
    pde_residual,
    phi_property_check,
    variational_inequality_check,
    verify,
    vi_probe_count,
)

from conftest import dense_neg_laplacian, random_field, standard_problem


@pytest.fixture(scope="module")
def solved_problem():
    spec, ball = standard_problem(n=8, p=7.0)
    res = minimize(spec, ball)
    assert res.converged
    return spec, ball, res


# ---------------------------------------------------------------- auxiliary solve


def test_auxiliary_solve_zero_candidate_inverts_forcing():
    # at u = 0 the right-hand side is the forcing alone
    spec, ball = standard_problem(n=6, p=3.0)
    aux = auxiliary_solve(ScalarField.zeros(spec.grid), spec, ball)
    direct = solve_dirichlet_poisson(spec.forcing).field
    assert np.array_equal(aux.values, direct.values)


def test_auxiliary_solve_dense_oracle(rng):
    spec, ball = standard_problem(n=4, p=3.0)
    u = (0.1 * ball.radius / 1.0) * random_field(spec.grid, rng, scale=0.05)
    a = dense_neg_laplacian(4)
    phi = np.linalg.solve(a, (spec.coupling.values * u.values**2).ravel())
    rhs = (
        -spec.coupling.values.ravel() * phi * u.values.ravel()
        + _signed_power(u.values, spec.p).ravel()
        + spec.forcing.values.ravel()
    )
    expected = np.linalg.solve(a, rhs).reshape(spec.grid.shape)
    aux = auxiliary_solve(u, spec, ball)
    assert_allclose(aux.values, expected, atol=1e-9 * np.abs(expected).max())


def test_auxiliary_solve_rejects_candidate_outside_ball():
    spec, ball = standard_problem(n=6)
    e1, _ = first_eigenpair(spec.grid)
    outside = (3.0 * ball.radius / w2n_norm(e1)) * e1
    with pytest.raises(OutsideBallError):
        auxiliary_solve(outside, spec, ball)


def test_auxiliary_solve_warns_when_image_escapes():
    # a hand-built ball with a tiny radius: the image of 0 is the forcing
    # inverse, far larger than the radius; that is a warning, not an error
    g = build_grid(6)
    spec = ProblemSpec(
        p=3.0,
        coupling=ScalarField(g, np.ones(g.shape)),
        forcing=ScalarField(g, np.ones(g.shape)),
        grid=g,
    )
    tiny = BallSpec(1.0, 1.0, 0.01, 0.005, 3.0, 1, 0)
    with pytest.warns(UserWarning, match="left the constraint ball"):
        aux = auxiliary_solve(ScalarField.zeros(g), spec, tiny)
    assert w2n_norm(aux) > tiny.radius


# ---------------------------------------------------------------- residuals


def test_fixed_point_residual_basics(rng):
    g = build_grid(5)
    u = random_field(g, rng)
    assert fixed_point_residual(u, u) == 0.0
    e1, _ = first_eigenpair(g)
    for delta in (1e-3, 1e-6):
        got = fixed_point_residual(u, u + delta * e1)
        assert_allclose(got, delta * grad_l2_norm(e1) / grad_l2_norm(u), rtol=1e-9)


def test_pde_residual_is_one_at_zero_candidate():
    spec, _ = standard_problem(n=5, p=3.0)
    assert pde_residual(ScalarField.zeros(spec.grid), spec) == 1.0


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
    spec = ProblemSpec(p=3.0, coupling=coupling, forcing=ScalarField(g, f_vals), grid=g)
    assert pde_residual(star, spec) <= 1e-12


def test_pde_residual_small_after_minimize(solved_problem):
    spec, ball, res = solved_problem
    assert pde_residual(res.minimizer, spec) <= 1e-5


# ---------------------------------------------------------------- variational inequality


def test_vi_no_violations_at_minimizer(solved_problem):
    spec, ball, res = solved_problem
    count = variational_inequality_check(res.minimizer, spec, ball, samples=50, seed=11)
    assert count == 0
    assert vi_probe_count(50) == 55


def test_vi_detects_non_minimizer():
    # the zero field with positive forcing is far from stationary: testing
    # against its own auxiliary image must reveal a lower-energy direction
    spec, ball = standard_problem(n=6, p=3.0)
    count = variational_inequality_check(
        ScalarField.zeros(spec.grid), spec, ball, samples=20, seed=5
    )
    assert count >= 1


def test_vi_rejects_negative_samples(solved_problem):
    spec, ball, res = solved_problem
    with pytest.raises(ValueError):
        variational_inequality_check(res.minimizer, spec, ball, samples=-1, seed=0)


# ---------------------------------------------------------------- potential structure


def test_phi_property_check_standard(solved_problem):
    spec, ball, res = solved_problem
    assert phi_property_check(res.minimizer, spec) == (True, True, True)


def test_phi_property_check_reuses_a_given_potential(solved_problem):
    spec, _, res = solved_problem
    phi = compute_phi(res.minimizer, spec.coupling)
    assert phi_property_check(res.minimizer, spec, phi=phi) == (True, True, True)
    # the checks read the potential they are given
    assert not phi_property_check(res.minimizer, spec, phi=-phi)[0]


def test_phi_property_check_zero_candidate_and_zero_scaling():
    spec, _ = standard_problem(n=5, p=3.0)
    assert phi_property_check(ScalarField.zeros(spec.grid), spec) == (True, True, True)
    e1, _ = first_eigenpair(spec.grid)
    assert phi_property_check(0.1 * e1, spec, t=0.0) == (True, True, True)
    with pytest.raises(ValueError):
        phi_property_check(0.1 * e1, spec, t=-1.0)


def test_phi_property_check_zero_coupling(rng):
    g = build_grid(5)
    spec = ProblemSpec(
        p=3.0,
        coupling=ScalarField.zeros(g),
        forcing=ScalarField(g, np.ones(g.shape)),
        grid=g,
    )
    assert phi_property_check(random_field(g, rng), spec) == (True, True, True)


# ---------------------------------------------------------------- coincidence and closure


def test_coincidence_identity_holds_generically(rng):
    # the identity behind the forced conclusion holds for any candidate
    spec, ball = standard_problem(n=6, p=3.0)
    for u in (ScalarField.zeros(spec.grid), 0.01 * first_eigenpair(spec.grid)[0]):
        aux = auxiliary_solve(u, spec, ball)
        vi_gap, solve_defect, ok = coincidence_check(u, aux, spec)
        half_sq = 0.5 * grad_l2_norm(aux - u) ** 2
        assert_allclose(half_sq, solve_defect - vi_gap, rtol=1e-9, atol=1e-12)
        assert ok


def test_coincidence_forces_tiny_distance_at_minimizer(solved_problem):
    spec, ball, res = solved_problem
    aux = auxiliary_solve(res.minimizer, spec, ball)
    vi_gap, solve_defect, ok = coincidence_check(res.minimizer, aux, spec)
    assert ok
    forced = abs(solve_defect) + max(-vi_gap, 0.0)
    assert 0.5 * grad_l2_norm(aux - res.minimizer) ** 2 <= forced + 1e-15
    assert forced <= 1e-10


def test_closure_constant_links_residuals(solved_problem):
    spec, ball, res = solved_problem
    aux = auxiliary_solve(res.minimizer, spec, ball)
    fp = fixed_point_residual(res.minimizer, aux)
    pde = pde_residual(res.minimizer, spec)
    c = closure_constant(res.minimizer, spec)
    # generous solver slack: the chained inverse estimates are a priori
    assert pde <= c * fp + 1e-7


# ---------------------------------------------------------------- full report


def test_verify_passes_on_solved_problem(solved_problem):
    spec, ball, res = solved_problem
    report = verify(res.minimizer, spec, ball, samples=60, seed=2)
    assert report.passed
    assert report.fixed_point_rel_residual <= report.fp_threshold
    assert report.pde_rel_residual <= report.pde_threshold
    assert report.vi_violations == 0
    assert report.vi_samples == 65
    assert report.aux_in_ball
    assert report.closure_ok
    assert report.coincidence_ok
    assert report.failed_checks == ()


def test_verify_fails_on_non_solution():
    spec, ball = standard_problem(n=6, p=3.0)
    report = verify(ScalarField.zeros(spec.grid), spec, ball, samples=10, seed=2)
    assert not report.passed
    assert report.pde_rel_residual == 1.0
    assert "pde" in report.failed_checks


def test_verify_deterministic(solved_problem):
    spec, ball, res = solved_problem
    a = verify(res.minimizer, spec, ball, samples=30, seed=9)
    b = verify(res.minimizer, spec, ball, samples=30, seed=9)
    assert a == b


def test_report_round_trip(solved_problem):
    spec, ball, res = solved_problem
    report = verify(res.minimizer, spec, ball, samples=10, seed=4)
    assert VerificationReport.from_dict(report.to_dict()) == report


def test_failed_checks_name_the_failing_gate_and_round_trip(solved_problem):
    spec, ball, res = solved_problem
    report = verify(res.minimizer, spec, ball, samples=10, seed=4, fp_threshold=1e-30)
    assert not report.passed
    assert report.failed_checks == ("fixed_point",)
    restored = VerificationReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert restored == report
    assert restored.failed_checks == ("fixed_point",)


def test_verify_solve_count(solved_problem, monkeypatch):
    # guards against a re-added solve: 33 phi-bound calibration solves,
    # phi_u, phi_{2u} and the auxiliary solve
    spec, ball, res = solved_problem
    count = 0
    init = PoissonSolution.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PoissonSolution, "__init__", counting_init)
    report = verify(res.minimizer, spec, ball, samples=10, seed=4)
    assert report.passed
    assert count == 36
