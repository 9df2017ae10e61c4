"""Constrained-descent tests: retraction geometry, certified initialization,
monotone traces, ball confinement, determinism, local minimality, the
Anderson-mixed step and its fallback, and the stop rule: a fixed_point stop
means the verifier's fixed_point and pde gates pass."""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spball.energy as energy_mod
import spball.minimize as minimize_mod
import spball.runner as runner_mod
from spball import (
    ForcingTooLargeError,
    GridMismatchError,
    ScalarField,
    build_grid,
    compute_phi,
    first_eigenpair,
    lp_norm,
)
from spball.ball import BALL_RTOL, estimate_constants
from spball.grid import neg_laplacian_array
from spball.energy import ProblemSpec, _state, energy, evaluate
from spball.poisson import solve_dirichlet_poisson
from spball.minimize import (
    MinimizeResult,
    _MixingHistory,
    _mixing_weights,
    _start_terms,
    initial_guess,
    minimize,
)
from spball.runner import ExperimentConfig, run_experiment
from spball.sampling import smoothed_random_fields
from spball.verify import FP_THRESHOLD, PDE_THRESHOLD, fixed_point_residual, verify

from conftest import (
    equation_rhs,
    grad_l2_norm,
    h1_inner,
    random_field,
    standard_problem,
    w2n_norm,
)


# ---------------------------------------------------------------- options


def test_options_validation():
    spec, ball, mode = standard_problem(n=4, p=3.0)
    # the old stop rule's and line search's knobs are gone, and the budget is
    # the constant MAX_ITERS
    for key in ("grad_tol", "energy_tol", "backtrack_factor", "initial_step", "opts",
                "max_iters"):
        with pytest.raises(TypeError, match=key):
            minimize(spec, ball, mode, **{key: 0.5})


# ---------------------------------------------------------------- retraction


def test_retract_inside_ball_is_identity(rng):
    # a field inside the ball keeps its state: evaluate with a radius gives
    # the state evaluate without one gives, bit for bit
    spec, _, _ = standard_problem(n=5, p=3.0)
    u = random_field(spec.grid, rng)
    s, free = evaluate(u, spec, 2.0 * w2n_norm(u)), evaluate(u, spec)
    assert s.u is u
    for name in ("g", "residual"):
        assert np.array_equal(getattr(s, name).values, getattr(free, name).values), name
    assert (s.terms, s.phi_range, s.w2n, s.residual_norm, s.rhs_norm) == (
        free.terms, free.phi_range, free.w2n, free.residual_norm, free.rhs_norm)


def test_retract_outside_ball_lands_on_boundary(rng):
    spec, _, _ = standard_problem(n=5, p=3.0)
    u = random_field(spec.grid, rng)
    r = 0.25 * w2n_norm(u)
    v = evaluate(u, spec, r).u
    assert_allclose(w2n_norm(v), r, rtol=1e-12)
    # direction preserved
    assert_allclose(v.values * w2n_norm(u), u.values * r, rtol=1e-10)


def test_retract_zero_field_and_bad_radius():
    spec, _, _ = standard_problem(n=4, p=3.0)
    zero = ScalarField.zeros(spec.grid)
    assert evaluate(zero, spec, 1.0).u is zero
    with pytest.raises(ValueError):
        evaluate(zero, spec, 0.0)


# ---------------------------------------------------------------- initialization


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_initial_guess_certifies_negative_energy(p):
    spec, ball, mode = standard_problem(p=p)
    s0 = initial_guess(spec, ball, mode)
    assert energy(s0) < 0.0
    assert w2n_norm(s0.u) <= ball.radius * (1.0 + 1e-12)
    assert float(s0.u.values.min()) >= 0.0  # positive multiple of the eigenfunction


def test_initial_guess_survives_tiny_forcing():
    spec, ball, mode = standard_problem()
    tiny = ProblemSpec(
        p=spec.p,
        coupling=spec.coupling,
        forcing=1e-3 * spec.forcing,
    )
    s0 = initial_guess(tiny, ball, mode)
    assert energy(s0) < 0.0


def test_initial_guess_tries_one_candidate(monkeypatch):
    # a winning t whose evaluated energy is not negative sends the start to
    # u = 0 at once: no second candidate is formed
    calls = []
    monkeypatch.setattr(minimize_mod, "energy", lambda s: calls.append(s) or 0.0)
    spec, ball, mode = standard_problem()
    s0 = initial_guess(spec, ball, mode)
    assert len(calls) == 1
    assert not s0.u.values.any()
    assert s0.terms == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_initial_guess_scales_phi_e1_without_a_solve(p, solve_counter):
    # the start is t e with e a multiple of e1, so its potential is a multiple
    # of phi_e1, which estimate_constants already solved; the one solve is the
    # start's gradient
    spec, ball, mode = standard_problem(p=p)
    s0, count = solve_counter(initial_guess, spec, ball, mode)
    assert count == 1
    phi = compute_phi(s0.u, spec.coupling).values
    assert_allclose(s0.phi_range, (phi.min(), phi.max()), rtol=1e-12, atol=0)
    coupling_term = 0.25 * float(np.vdot(spec.coupling.values * phi * s0.u.values, s0.u.values))
    assert_allclose(s0.terms[1], coupling_term * spec.grid.h**3, rtol=1e-12, atol=0)
    g5 = build_grid(5)
    other = estimate_constants(p, ScalarField.constant(g5, 1.0))[1]
    with pytest.raises(GridMismatchError):
        initial_guess(spec, ball, other)


def _start_problem(n, p, coupling_kind):
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = ScalarField.constant(g, 1.0) if coupling_kind == "constant" else 10.0 * e1
    ball, mode = estimate_constants(p, coupling)
    forcing = (0.5 * ball.forcing_bound / lp_norm(e1, 3)) * e1
    return ProblemSpec(p=p, coupling=coupling, forcing=forcing), ball, mode


@pytest.mark.parametrize("coupling_kind", ["constant", "sine_bump"])
@pytest.mark.parametrize("n", [6, 8, 16])
@pytest.mark.parametrize("p", [1.01, 3.0, 7.0, 400.0])
def test_initial_guess_polynomial_from_four_numbers(p, n, coupling_kind):
    # the start's coefficients are the terms of e's own state, and the state it
    # returns is, bit for bit, the candidate that state's polynomial picks
    spec, ball, mode = _start_problem(n, p, coupling_kind)
    scale = ball.radius / (mode.lam * mode.norm)
    e = scale * mode.e1
    phi = mode.phi.values * (scale * scale)
    base_lap = mode.lam * e
    # _state takes over the Laplacian it is handed, so each state gets a copy
    base = _state(e, phi.copy(), 1.0 * base_lap, lp_norm(base_lap, 3), spec)
    assert _start_terms(spec, ball.radius, mode)[0] == scale
    assert_allclose(_start_terms(spec, ball.radius, mode)[1], base.terms, rtol=1e-13, atol=0)

    quad, quart, power, lin = base.terms
    ts = np.concatenate(([0.0], np.geomspace(1e-8, 1.0, 400)))
    poly = quad * ts**2 + quart * ts**4 - power * ts ** (p + 1.0) - lin * ts
    expected = None
    for idx in np.argsort(poly, kind="stable"):
        t = float(ts[idx])
        if poly[idx] >= 0.0:
            break
        lap = t * base_lap
        candidate = _state(t * e, phi * (t * t), lap, lp_norm(lap, 3), spec)
        if candidate.w2n <= ball.radius * (1.0 + BALL_RTOL) and energy(candidate) < 0.0:
            expected = candidate
            break
    assert expected is not None
    s0 = initial_guess(spec, ball, mode)
    for name in ("u", "g", "residual"):
        assert np.array_equal(getattr(s0, name).values, getattr(expected, name).values), name
    for name in ("terms", "phi_range", "w2n", "residual_norm", "rhs_norm"):
        assert getattr(s0, name) == getattr(expected, name), name


# ---------------------------------------------------------------- descent


def test_minimize_zero_forcing_diagnostic():
    spec, ball, mode = standard_problem()
    diag = ProblemSpec(
        p=spec.p,
        coupling=spec.coupling,
        forcing=ScalarField.zeros(spec.grid),
    )
    res = minimize(diag, ball, mode)
    assert res.iterations == 0
    assert res.energy == 0.0
    assert np.all(res.minimizer.values == 0.0)
    assert res.trace == ((0, 0.0, 0.0, 0.0),)
    # a zero gradient has fixed-point residual 0
    assert res.stop_reason == "fixed_point"
    assert res.mixed_steps == 0


def test_minimize_rejects_oversized_forcing():
    spec, ball, mode = standard_problem()
    big = ProblemSpec(
        p=spec.p,
        coupling=spec.coupling,
        forcing=3.0 * spec.forcing,
    )
    with pytest.raises(ForcingTooLargeError) as excinfo:
        minimize(big, ball, mode)
    assert excinfo.value.bound == ball.forcing_bound
    assert excinfo.value.actual > excinfo.value.bound


def test_minimize_accepts_forcing_at_exact_bound():
    # fraction 1.0 puts the L3 norm on the bound up to float rounding
    spec, ball, mode = standard_problem(fraction=1.0)
    res = minimize(spec, ball, mode)
    assert res.energy < 0.0


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_minimize_standard_run(p):
    spec, ball, mode = standard_problem(p=p)
    res = minimize(spec, ball, mode)
    assert res.energy < 0.0
    assert res.energy == energy(evaluate(res.minimizer, spec))
    assert w2n_norm(res.minimizer) <= ball.radius * (1.0 + 1e-12)
    # strict monotone descent along the recorded trace, zero slack
    energies = [row[1] for row in res.trace]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert res.trace[0][:3] == (0, energies[0], 0.0)
    assert res.trace[0][3] > FP_THRESHOLD  # the start is no fixed point
    assert res.stop_reason == "fixed_point"
    assert res.trace[-1][3] <= FP_THRESHOLD
    assert 1 <= res.mixed_steps < res.iterations  # the first iteration has no history


def test_minimize_trace_is_deterministic():
    spec, ball, mode = standard_problem()
    a = minimize(spec, ball, mode)
    b = minimize(spec, ball, mode)
    assert a.trace == b.trace
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_minimize_iteration_budget_flags_nonconvergence(monkeypatch):
    monkeypatch.setattr(minimize_mod, "MAX_ITERS", 1)
    spec, ball, mode = standard_problem(p=3.0)
    res = minimize(spec, ball, mode)
    assert res.iterations == 1
    assert res.stop_reason == "budget"
    assert res.energy == energy(res.state)  # the last row is the minimizer's
    assert isinstance(res, MinimizeResult)


def test_minimize_stall_is_not_converged(monkeypatch):
    # no mixed trial and no backtracked step lowers the energy: the descent
    # stops where it started, above the fixed-point target
    monkeypatch.setattr(_MixingHistory, "mixed", lambda self, g, u: u)
    monkeypatch.setattr(minimize_mod, "_backtrack", lambda *args: None)
    spec, ball, mode = standard_problem(p=3.0)
    res = minimize(spec, ball, mode)
    assert res.stop_reason == "no_decrease"
    assert res.iterations == 0
    assert res.energy == energy(res.state)


# n=6, p=7 with a 1e8 sine-bump coupling: a stop on the H1 displacement
# once ended it after 1 iteration, and verification then failed fixed_point
# and pde (fp 4.0e-4)
STIFF_COUPLING_N6 = {
    "grid_n": 6,
    "p": 7.0,
    "coupling": {"sine_bump": 1e8},
    "forcing": {"scaled_to_bound": 0.5},
    "samples": 16,
    "seed": 3,
}


def test_stiff_coupling_converges_only_when_verified():
    report = run_experiment(ExperimentConfig.from_dict(STIFF_COUPLING_N6))
    assert report.minimize_summary["stop_reason"] == "fixed_point"
    assert report.verification.passed


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
@pytest.mark.parametrize("coupling", [{"constant": 1}, {"sine_bump": 1e3}])
@pytest.mark.parametrize("fraction, safety", [(1.0, 1.0), (0.5, 2.0)])
def test_converged_runs_pass_the_residual_gates(monkeypatch, n, p, coupling, fraction, safety):
    # the descent's last fixed-point residual is verify's, bit for bit: verify
    # reads the state of the descent's last stop test
    seen = []
    fp = minimize_mod.fixed_point_residual

    def recording(s):
        seen.append(fp(s))
        return seen[-1]

    monkeypatch.setattr(minimize_mod, "fixed_point_residual", recording)
    cfg = ExperimentConfig.from_dict({
        "grid_n": n, "p": p, "coupling": coupling,
        "forcing": {"scaled_to_bound": fraction}, "safety": safety,
    })
    report = run_experiment(cfg)
    ver = report.verification
    assert report.minimize_summary["stop_reason"] == "fixed_point"
    assert seen[-1] == ver.fixed_point_rel_residual
    assert ver.fixed_point_rel_residual <= FP_THRESHOLD
    assert ver.pde_rel_residual <= PDE_THRESHOLD
    assert not {"fixed_point", "pde"} & set(ver.failed_checks)


def test_minimize_local_minimality_spot_check():
    spec, ball, mode = standard_problem(p=7.0)
    res = minimize(spec, ball, mode)
    base = res.energy
    probes = smoothed_random_fields(spec.grid, 50, seed=123)
    for v in probes:
        scale = 1e-4 / max(w2n_norm(v), 1e-30)
        cand = evaluate(res.minimizer + scale * v, spec, ball.radius)
        assert energy(cand) >= base - 1e-9


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_minimize_solve_count(p, solve_counter):
    # guards against a re-added solve: the initial guess takes one, its
    # gradient (it scales phi_e1, which estimate_constants solved), and each
    # line-search trial two, its potential and its gradient
    spec, ball, mode = standard_problem(n=8, p=p)
    res, count = solve_counter(minimize, spec, ball, mode)
    assert res.iterations >= 1
    assert all(row[2] == 1.0 for row in res.trace[1:])  # no backtracking
    assert count == 1 + 2 * res.iterations


def on_sphere(w2n, radius):
    """Whether a ball norm lies on the ball's sphere, to the slack of its membership tests."""
    return abs(w2n - radius) <= BALL_RTOL * radius


# n=8, p=3 with a 1e13 coupling: the radius is 3.65e-11 and the minimizer
# sits at a quarter of it, yet an absolute 1e-8 tolerance called it on the boundary
TINY_RADIUS_N8 = {
    "grid_n": 8,
    "p": 3.0,
    "coupling": {"constant": 1e13},
    "forcing": {"scaled_to_bound": 0.5},
    "safety": 1.0,
}


def test_on_boundary_is_relative_to_the_radius():
    report = run_experiment(ExperimentConfig.from_dict(TINY_RADIUS_N8))
    summary = report.minimize_summary
    assert report.ball.radius < 1e-10
    assert summary["minimizer_w2n"] < 0.5 * report.ball.radius
    assert report.verification.passed
    assert not on_sphere(summary["minimizer_w2n"], report.ball.radius)


def _forcing_sized_ball(fraction=1.9):
    """standard_problem at `fraction` of its ball's budget, with a hand-built
    ball of tiny constants whose own budget, half its radius, is just that
    forcing's norm."""
    spec, ball, mode = standard_problem(n=8, p=3.0, fraction=fraction)
    small = replace(ball, coupling_constant=1e-30, power_constant=1e-30,
                    radius=fraction * ball.radius)
    return spec, small, mode


def test_retracted_minimizer_is_on_the_boundary(monkeypatch):
    # a hand-built ball just large enough for the forcing, whose descent
    # leaves it: the accepted step is a retracted trial, and the descent
    # ends there, on the boundary; at the package ball's budget, on the
    # package's ball, it ends inside
    evaluate_ = minimize_mod.evaluate
    retracted = []

    def recording(u, spec, radius=math.inf):
        out = evaluate_(u, spec, radius)
        if out.u is not u:  # pulled back onto the ball
            retracted.append(out)
        return out

    monkeypatch.setattr(minimize_mod, "evaluate", recording)
    spec, ball, mode = _forcing_sized_ball()
    res = minimize(spec, ball, mode)
    assert any(res.state is out for out in retracted)
    assert on_sphere(res.state.w2n, ball.radius)
    spec, ball, mode = standard_problem(n=8, p=3.0, fraction=1.0)
    free = minimize(spec, ball, mode)
    assert not on_sphere(free.state.w2n, ball.radius)


def test_backtracking_stops_at_the_step_floor(monkeypatch):
    # on the hand-built ball above, the retracted step 1 is the minimizer; the
    # next iteration's mixed trial fails, and the plain step halves from 1 down
    # to 2^-39, the last step above the 1e-12 floor, 40 trials, before the
    # descent ends no_decrease. A floor of 1e-18 took 111 trial states and
    # accepted a step of 7e-15 whose energy decrease was rounding
    evaluate_ = minimize_mod.evaluate
    calls = 0

    def counting(u, spec, radius=math.inf):
        nonlocal calls
        calls += 1
        return evaluate_(u, spec, radius)

    monkeypatch.setattr(minimize_mod, "evaluate", counting)
    res = minimize(*_forcing_sized_ball())
    assert res.stop_reason == "no_decrease"
    assert [row[2] for row in res.trace] == [0.0, 1.0]
    assert res.energy == energy(res.state)
    assert calls == 1 + 1 + 40


# ---------------------------------------------------------------- mixed step

# the descent-n32 benchmark workload at n=8: p=3 at full forcing, safety 1
DESCENT_N8 = {
    "grid_n": 8,
    "p": 3.0,
    "coupling": {"constant": 1},
    "forcing": {"scaled_to_bound": 1.0},
    "safety": 1.0,
    "samples": 1,
    "seed": 3,
}
# the plain descent's minimum energy on DESCENT_N8, reached in 10 iterations
PLAIN_DESCENT_N8_ENERGY = -11.206300255050532


def test_mixed_descent_reaches_the_plain_minimizer_in_fewer_iterations():
    report = run_experiment(ExperimentConfig.from_dict(DESCENT_N8))
    assert report.verification.passed
    assert report.minimize_summary["iterations"] <= 5
    assert report.minimize_summary["mixed_steps"] == report.minimize_summary["iterations"] - 1
    assert report.minimize_summary["stop_reason"] == "fixed_point"
    assert report.energy == pytest.approx(PLAIN_DESCENT_N8_ENERGY, rel=1e-10, abs=0.0)


def test_rejected_mixed_trial_falls_back_to_the_plain_step(monkeypatch, solve_counter):
    # a mixed trial at the current iterate cannot strictly decrease the energy,
    # so every iteration falls back, and the run is the plain descent
    trials = 0

    def stalled_mixed(self, g, u):
        nonlocal trials
        trials += 1
        return u

    monkeypatch.setattr(_MixingHistory, "mixed", stalled_mixed)
    cleared = 0
    clear = _MixingHistory.clear

    def counting_clear(self):
        nonlocal cleared
        cleared += 1
        clear(self)

    monkeypatch.setattr(_MixingHistory, "clear", counting_clear)
    cfg = ExperimentConfig.from_dict(DESCENT_N8)
    report = run_experiment(cfg)
    summary = report.minimize_summary
    assert summary["mixed_steps"] == 0
    assert trials == cleared == summary["iterations"] - 1
    assert summary["iterations"] == 10
    assert report.energy == PLAIN_DESCENT_N8_ENERGY
    assert report.verification.passed

    spec, ball, mode = standard_problem(n=8, p=3.0)
    res, count = solve_counter(minimize, spec, ball, mode)
    energies = [row[1] for row in res.trace]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert res.mixed_steps == 0
    assert all(row[2] == 1.0 for row in res.trace[1:])
    # each rejected mixed trial costs two solves, its potential and its
    # gradient, on top of 1 + 2 * iterations
    assert count == 1 + 2 * res.iterations + 2 * (res.iterations - 1)


def test_trial_outside_the_ball_is_rescaled_without_a_solve(monkeypatch, solve_counter):
    # no trial leaves the ball in an ordinary run; a mixed trial of 3 T(u)
    # does, and its retraction must rescale the evaluated state, t u with
    # t^2 phi_u, on the ball and without another solve
    monkeypatch.setattr(_MixingHistory, "mixed", lambda self, g, u: 3.0 * (u - g))
    evaluate_ = minimize_mod.evaluate
    calls = []

    def recording(u, spec, radius=math.inf):
        out = evaluate_(u, spec, radius)
        calls.append((u, out))
        return out

    monkeypatch.setattr(minimize_mod, "evaluate", recording)
    spec, ball, mode = standard_problem(n=8, p=3.0)
    res, count = solve_counter(minimize, spec, ball, mode)
    assert res.stop_reason == "fixed_point"
    assert any(w2n_norm(u) > ball.radius for u, _ in calls)  # the path ran
    h3 = spec.grid.h**3
    for _, out in calls:
        assert w2n_norm(out.u) <= ball.radius * (1.0 + BALL_RTOL)
        # the state's potential reads are those of phi_u, solved afresh
        phi = compute_phi(out.u, spec.coupling).values
        assert_allclose(out.phi_range, (phi.min(), phi.max()), rtol=1e-12, atol=0)
        coupled = float(np.vdot(spec.coupling.values * phi * out.u.values, out.u.values))
        assert_allclose(out.terms[1], 0.25 * coupled * h3, rtol=1e-12, atol=0)
    # one for the initial guess's gradient and two per trial, its potential
    # and its gradient, retracted or not
    assert count == 1 + 2 * len(calls)


# ---------------------------------------------------------------- handed-over state

# the solve-n32 benchmark workload at n=8: p=7 at half the forcing bound
BASELINE_N8 = {
    "grid_n": 8,
    "p": 7.0,
    "coupling": {"constant": 1},
    "forcing": {"scaled_to_bound": 0.5},
    "samples": 64,
    "seed": 3,
}
HANDOVER_CASES = [
    pytest.param(DESCENT_N8, id="descent-n8"),
    pytest.param(BASELINE_N8, id="baseline-n8"),
    pytest.param(STIFF_COUPLING_N6, id="stiff-coupling-n6"),
]


def recorded_minimize(monkeypatch):
    """Patch the runner's minimize to record (result, spec, ball) of each call."""
    calls = []

    def recording(spec, ball, mode, *args, **kwargs):
        calls.append((minimize(spec, ball, mode, *args, **kwargs), spec, ball))
        return calls[-1][0]

    monkeypatch.setattr(runner_mod, "minimize", recording)
    return calls


@pytest.mark.parametrize("config", HANDOVER_CASES)
def test_verify_from_the_handed_over_state_matches_the_field_alone(monkeypatch, config):
    # the final state, gradient included, is a pure function of the
    # minimizer, so verify from it reads, bit for bit, what it reads from
    # the field alone
    calls = recorded_minimize(monkeypatch)
    report = run_experiment(ExperimentConfig.from_dict(config))
    (res, spec, ball), = calls
    s = evaluate(res.minimizer, spec)
    assert res.iterations >= 1
    for name in ("u", "g", "residual"):
        assert np.array_equal(getattr(res.state, name).values, getattr(s, name).values), name
    for name in ("terms", "phi_range", "w2n", "residual_norm", "rhs_norm"):
        assert getattr(res.state, name) == getattr(s, name), name
    assert report.verification == verify(res.state, spec, ball) == verify(s, spec, ball)


@pytest.mark.parametrize("config", HANDOVER_CASES)
def test_stop_test_residual_is_the_gradient_pass_norm(monkeypatch, config):
    # at every stop test the state's gradient is gradient_field's, formed
    # from the state's rhs, so the pairing with its strong residual reads the
    # H1 norm a gradient pass over g would. Each state is checked at its
    # stop test, against copies of the lap and rhs its gradient was formed
    # from, which gradient_field takes over
    held, checked = [], 0
    fp = minimize_mod.fixed_point_residual
    gradient_field_ = energy_mod.gradient_field

    def recording_gradient(u, lap, rhs):
        copies = (ScalarField(lap.grid, lap.values), ScalarField(rhs.grid, rhs.values))
        held.append((gradient_field_(u, lap, rhs), copies))
        return held[-1][0]

    def recording(s):
        nonlocal checked
        checked += 1
        lap, rhs = next(copies for gradient, copies in held if gradient[0] is s.g)
        assert np.array_equal(s.g.values, (s.u - solve_dirichlet_poisson(rhs).field).values)
        assert np.array_equal(s.residual.values, (lap - rhs).values)
        # the two readings differ by stencil and solve rounding of about eps
        # in absolute terms, at most 1.2 eps over these cases, which near the
        # threshold fp ~ 1e-7 is a relative 1e-9; 16 eps keeps a margin
        assert_allclose(fp(s), grad_l2_norm(s.g) / grad_l2_norm(s.u), rtol=1e-9,
                        atol=16 * np.finfo(float).eps)
        return fp(s)

    monkeypatch.setattr(energy_mod, "gradient_field", recording_gradient)
    monkeypatch.setattr(minimize_mod, "fixed_point_residual", recording)
    report = run_experiment(ExperimentConfig.from_dict(config))
    assert checked == len(held) == report.minimize_summary["iterations"] + 1


@pytest.mark.parametrize("config", HANDOVER_CASES)
def test_aux_ball_norm_is_the_rhs_norm(monkeypatch, config):
    # -Delta_h T(u) = rhs(u) by construction, so the aux_in_ball gate reads
    # ||rhs||_3, which the state keeps, in place of the stencil norm of
    # T(u) = u - g
    calls = recorded_minimize(monkeypatch)
    run_experiment(ExperimentConfig.from_dict(config))
    (res, spec, _), = calls
    stencil = w2n_norm(res.minimizer - res.state.g)
    assert res.state.rhs_norm == pytest.approx(stencil, rel=1e-12, abs=0.0)
    assert res.state.rhs_norm == lp_norm(equation_rhs(res.minimizer, spec), 3)


@pytest.mark.parametrize("config", HANDOVER_CASES)
def test_run_experiment_solve_count(monkeypatch, solve_counter, config):
    # guards the whole run against a re-added solve: one for the ball
    # constants (phi_e1, which the initial guess scales), 1 + 2 * iterations
    # in the descent (every iteration after the first accepts its mixed trial
    # at step 1) and none in verify
    calls = recorded_minimize(monkeypatch)
    report, count = solve_counter(run_experiment, ExperimentConfig.from_dict(config))
    (res, _, _), = calls
    assert report.verification.passed
    assert all(row[2] == 1.0 for row in res.trace[1:])
    assert res.mixed_steps == res.iterations - 1
    assert count == 1 + (1 + 2 * res.iterations)


# the solve-n32 benchmark workload itself: 1 iteration, so 2 states
@pytest.mark.parametrize("config", HANDOVER_CASES + [
    pytest.param({**BASELINE_N8, "grid_n": 32}, id="solve-n32"),
])
def test_run_experiment_kernel_count(monkeypatch, kernel_counter, config):
    # guards the whole run against re-added stencils and power passes.
    # Stencils: one per trial state, and none per accepted step, whose trace
    # row records the stop test's residual; the ball takes e1's ball norm as
    # lambda_h ||e1||_3, the initial guess scales lambda_h e1, the Anderson
    # history reads the held strong residuals and verify reads T(u)'s ball
    # norm as ||rhs||_3, so none of them runs one. _signed_power: one per state
    # formed, the initial guess's and one per trial; the ball's power ratio
    # and the start's polynomial take their own powers
    calls = recorded_minimize(monkeypatch)
    report, counts = kernel_counter(run_experiment, ExperimentConfig.from_dict(config))
    (res, _, _), = calls
    k = res.iterations
    assert report.verification.passed
    assert all(row[2] == 1.0 for row in res.trace[1:])
    assert res.mixed_steps == k - 1
    assert counts["neg_laplacian_array"] == k
    assert counts["_signed_power"] == 1 + k


def test_mixing_history_keeps_the_last_three_steps():
    g = build_grid(6)
    rng = np.random.default_rng(5)
    history = _MixingHistory()
    arrays = [(rng.standard_normal(g.shape), rng.standard_normal(g.shape)) for _ in range(6)]
    for grad, u in arrays:
        history.push(grad, u, neg_laplacian_array(grad, g.h))
    assert len(history.steps) == 3
    # the Gram matrix is the H1 pairing of the last three gradient changes
    dgs = [ScalarField(g, b[0] - a[0]) for a, b in zip(arrays[2:], arrays[3:])]
    expected = np.array([[h1_inner(a, b) for b in dgs] for a in dgs]) / g.h**3
    assert_allclose(history.gram, expected, rtol=1e-10)
    # its mixture matches type-II Anderson from the raw differences
    grad, u = arrays[-1]
    dts = [(b[1] - b[0]) - (a[1] - a[0]) for a, b in zip(arrays[2:], arrays[3:])]
    rhs = np.array([h1_inner(d, ScalarField(g, grad)) for d in dgs]) / g.h**3
    gamma = np.linalg.solve(expected, rhs)
    assert_allclose(history.mixed(grad, u), u - grad - sum(c * d for c, d in zip(gamma, dts)),
                    rtol=1e-8, atol=1e-10)
    history.clear()
    assert history.steps == [] and history.gram.shape == (0, 0)


def test_mixing_history_push_frees_the_last_iterate_as_it_differences():
    # once the caller has moved on, the window alone holds the last
    # iterate's g, u and -Delta_h g; push drops each as soon as its
    # difference is formed and forms dT in the step's array, so recording an
    # iterate holds one new field at a time, not three
    g = build_grid(16)
    rng = np.random.default_rng(3)
    history = _MixingHistory()
    tracemalloc.start()
    try:
        grad = rng.standard_normal(g.shape)
        history.push(grad, rng.standard_normal(g.shape), neg_laplacian_array(grad, g.h))
        grad = rng.standard_normal(g.shape)
        u = rng.standard_normal(g.shape)
        lap = neg_laplacian_array(grad, g.h)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        history.push(grad, u, lap)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(history.steps) == 1
    assert peak / (8 * (g.n - 1) ** 3) <= 1.25


def test_mixing_history_drops_the_oldest_step_once_a_full_window_has_mixed():
    # the mixture is the last read of the oldest step: the next push would
    # drop it and a rejected mixture clears the window, so mixed drops it at
    # once, and the next push leaves the window of a history that never mixed
    g = build_grid(6)
    rng = np.random.default_rng(5)
    arrays = [(rng.standard_normal(g.shape), rng.standard_normal(g.shape)) for _ in range(5)]
    history, twin = _MixingHistory(), _MixingHistory()
    for grad, u in arrays[:4]:
        lap = neg_laplacian_array(grad, g.h)
        history.push(grad, u, lap)
        twin.push(grad, u, lap)
    assert len(history.steps) == 3
    oldest = [weakref.ref(a) for a in history.steps[0]]
    assert history.mixed(*arrays[3]) is not None
    assert len(history.steps) == 2 and history.gram.shape == (2, 2)
    assert [ref() for ref in oldest] == [None, None]
    grad, u = arrays[4]
    lap = neg_laplacian_array(grad, g.h)
    history.push(grad, u, lap)
    twin.push(grad, u, lap)
    assert len(history.steps) == len(twin.steps) == 3
    for mine, theirs in zip(history.steps, twin.steps):
        assert [a.tobytes() for a in mine] == [b.tobytes() for b in theirs]
    assert history.gram.tobytes() == twin.gram.tobytes()


def test_mixture_is_the_bits_of_one_temporary_per_step():
    # mixed subtracts each coeff dT through one scratch array; the mixture
    # is, byte for byte, u - g less coeff * dT formed afresh for each of a
    # full window's three steps
    g = build_grid(6)
    rng = np.random.default_rng(11)
    history = _MixingHistory()
    arrays = [(rng.standard_normal(g.shape), rng.standard_normal(g.shape)) for _ in range(4)]
    for grad, u in arrays:
        history.push(grad, u, neg_laplacian_array(grad, g.h))
    assert len(history.steps) == 3
    grad, u = arrays[-1]
    rhs = np.array([np.vdot(ldg, grad) for ldg, _ in history.steps])
    gamma = _mixing_weights(history.gram, rhs)
    expected = u - grad
    for coeff, (_, dt) in zip(gamma, history.steps):
        expected -= coeff * dt
    assert history.mixed(grad, u).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["descent-n8", "retracted"])
def test_trace_records_the_stop_tests_fixed_point_residual(monkeypatch, case):
    # every trace row's fourth value is fixed_point_residual of the
    # evaluated state whose energy the row records, bit for bit, and the
    # last row's is verify's fixed_point_rel_residual. "retracted" is the
    # hand-built ball whose accepted step is pulled back onto the boundary
    states = []
    evaluate_, initial_guess_ = minimize_mod.evaluate, minimize_mod.initial_guess

    def recording(u, spec, radius=math.inf):
        states.append(evaluate_(u, spec, radius))
        return states[-1]

    def recording_start(*args):
        states.append(initial_guess_(*args))
        return states[-1]

    monkeypatch.setattr(minimize_mod, "evaluate", recording)
    monkeypatch.setattr(minimize_mod, "initial_guess", recording_start)
    if case == "descent-n8":
        calls = recorded_minimize(monkeypatch)
        report = run_experiment(ExperimentConfig.from_dict(DESCENT_N8)).verification
        (res, _, _), = calls
        assert res.iterations >= 3
    else:
        spec, ball, mode = _forcing_sized_ball()
        res = minimize(spec, ball, mode)
        report = verify(res.state, spec, ball)
        assert on_sphere(res.state.w2n, ball.radius) and res.iterations == 1
    assert len(res.trace) == res.iterations + 1
    iterates = [next(s for s in states if energy(s) == row[1]) for row in res.trace]
    assert iterates[-1] is res.state
    for row, s in zip(res.trace, iterates):
        assert row[3] == fixed_point_residual(s)
    assert res.trace[-1][3] == report.fixed_point_rel_residual


def test_mixing_weights_match_least_squares():
    # on a well-conditioned symmetric positive definite Gram matrix the LU
    # solve gives the least-squares weights
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            gram = (q * rng.uniform(1.0, 10.0, k)) @ q.T * 10.0 ** rng.uniform(-8, 8)
            rhs = rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8)
            expected = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            assert_allclose(_mixing_weights(gram, rhs), expected, rtol=1e-12, atol=0.0)


def test_degenerate_gram_gives_no_weights():
    assert _mixing_weights(np.zeros((1, 1)), np.ones(1)) is None
    assert _mixing_weights(np.ones((2, 2)), np.ones(2)) is None
    # finite entries whose solve overflows
    assert _mixing_weights(np.array([[1e-300]]), np.array([1e300])) is None


def test_singular_gram_clears_the_history():
    # two iterates with the same gradient leave a zero gradient change, so
    # the Gram matrix is exactly singular: no mixture, and no step kept
    g = build_grid(6)
    rng = np.random.default_rng(9)
    grad = rng.standard_normal(g.shape)
    history = _MixingHistory()
    for _ in range(2):
        history.push(grad, rng.standard_normal(g.shape), neg_laplacian_array(grad, g.h))
    assert history.gram.shape == (1, 1) and history.gram[0, 0] == 0.0
    assert history.mixed(grad, rng.standard_normal(g.shape)) is None
    assert history.steps == [] and history.gram.shape == (0, 0)
    assert history.last is not None


def test_singular_gram_takes_the_plain_step(monkeypatch):
    # a Gram matrix made exactly singular at every push raises nothing: each
    # iteration clears the history and backtracks, so the run is the plain descent
    push = _MixingHistory.push

    def singular_push(self, g, u, lap_g):
        push(self, g, u, lap_g)
        self.gram = np.zeros_like(self.gram)

    monkeypatch.setattr(_MixingHistory, "push", singular_push)
    report = run_experiment(ExperimentConfig.from_dict(DESCENT_N8))
    summary = report.minimize_summary
    assert summary["mixed_steps"] == 0
    assert summary["iterations"] == 10
    assert report.energy == PLAIN_DESCENT_N8_ENERGY
    assert report.verification.passed


def test_descent_runs_no_svd(monkeypatch):
    # the descent-n32 config at n=12 mixes and verifies without an SVD, and
    # without a LAPACK solve: the Gram system is eliminated in Python floats
    def refused(*args, **kwargs):
        raise AssertionError("an np.linalg routine was called")

    for name in ("lstsq", "pinv", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, refused)
    report = run_experiment(ExperimentConfig.from_dict({**DESCENT_N8, "grid_n": 12}))
    assert report.minimize_summary["mixed_steps"] >= 1
    assert report.verification.passed
