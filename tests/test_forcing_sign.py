"""A forcing of any sign: the start takes the sign of <f, e1> and falls back to
u = 0, so a negative, sign-changing or tiny forcing verifies like a positive
one. The mirror u -> -u maps the run for -f onto the run for f bit for bit,
and a hypothesis sweep over exponents, kinds, signs and amplitudes down to
1e-300 checks that every run through the CLI ends verified or with a typed
error."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spball.runner as runner_mod
from spball.ball import estimate_constants
from spball.energy import ProblemSpec
from spball.grid import ScalarField, build_grid, first_eigenpair, lp_norm
from spball.minimize import initial_guess, minimize
from spball.runner import ExperimentConfig, run_experiment
from spball.verify import verify

from conftest import run_cli, sample_function


# ---------------------------------------------------------------- regressions


def test_forcing_too_small_for_any_multiple_of_e1_verifies():
    # no multiple t e1 with t >= 1e-8 registers a 1e-7 forcing above rounding;
    # the descent starts at u = 0 and its first step lands on T(0)
    config = {"grid_n": 8, "p": 7, "coupling": {"constant": 1}, "forcing": {"constant": 1e-7}}
    code, out, err = run_cli(config)
    assert code == 0, err
    assert "verification PASSED" in out


def _mode(grid, i, j, k):
    return sample_function(
        grid, lambda x, y, z: np.sin(i * np.pi * x) * np.sin(j * np.pi * y) * np.sin(k * np.pi * z)
    )


SHAPES = {
    "minus-e1": lambda g: -first_eigenpair(g)[0],
    "mode-211": lambda g: _mode(g, 2, 1, 1),
    "e1-minus-1.5-mode-211": lambda g: first_eigenpair(g)[0] - 1.5 * _mode(g, 2, 1, 1),
}


def _solve(p, shape):
    g = build_grid(8)
    coupling = ScalarField.constant(g, 1.0)
    ball, mode = estimate_constants(p, coupling)
    f = shape(g)
    f = (0.5 * ball.forcing_bound / lp_norm(f, 3)) * f
    spec = ProblemSpec(p=p, coupling=coupling, forcing=f)
    res = minimize(spec, ball, mode)
    return res, verify(res.state, spec, ball)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("p", [3.0, 7.0])
def test_forcing_of_any_sign_verifies(p, shape):
    res, report = _solve(p, SHAPES[shape])
    assert res.stop_reason == "fixed_point"
    assert report.passed, report.failed_checks
    assert res.energy < 0.0


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_forcing_orthogonal_to_e1_starts_at_zero(p):
    res, _ = _solve(p, SHAPES["mode-211"])
    # the zero start's residual: T(0) != 0 beside u = 0
    assert res.trace[0] == (0, 0.0, 0.0, math.inf)
    assert res.iterations >= 1


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_minus_e1_has_the_energy_of_e1(p):
    e1 = _solve(p, lambda g: first_eigenpair(g)[0])[0]
    minus = _solve(p, SHAPES["minus-e1"])[0]
    assert minus.energy == e1.energy
    assert np.array_equal(minus.minimizer.values, -e1.minimizer.values)


def test_initial_guess_takes_the_sign_of_the_forcing():
    g = build_grid(6)
    coupling = ScalarField.constant(g, 1.0)
    ball, mode = estimate_constants(3.0, coupling)
    e1 = mode.e1
    f = (0.5 * ball.forcing_bound / lp_norm(e1, 3)) * e1

    def start(forcing):
        spec = ProblemSpec(p=3.0, coupling=coupling, forcing=forcing)
        return initial_guess(spec, ball, mode)

    plus, minus = start(f), start(-f)
    assert plus.terms[3] > 0.0
    assert np.array_equal(minus.u.values, -plus.u.values)
    assert minus.terms == plus.terms
    # a zero forcing starts, without a search, at the zero field
    assert not start(ScalarField.zeros(g)).u.values.any()


# ---------------------------------------------------------------- mirror


def _recorded_run(monkeypatch, config):
    results = []

    def recording(spec, ball, mode):
        results.append(minimize(spec, ball, mode))
        return results[-1]

    monkeypatch.setattr(runner_mod, "minimize", recording)
    report = run_experiment(ExperimentConfig.from_dict(config))
    report_dict = report.to_dict()
    del report_dict["config"], report_dict["wall_time"]
    return report_dict, results[0].minimizer


@pytest.mark.parametrize("n, p, kind, amplitude", list(itertools.product(
    (6, 8), (1.5, 3.0, 7.0, 20.0), ("constant", "sine_bump"), (1e-3, 1e-7),
)))
def test_negated_forcing_mirrors_the_run(monkeypatch, n, p, kind, amplitude):
    # only the forcing term is odd in u, and every kernel commutes with
    # negation in floating point, so the run for -f is the run for f, mirrored
    def run(sign):
        return _recorded_run(monkeypatch, {"grid_n": n, "p": p, "coupling": {"constant": 1},
                                           "forcing": {kind: sign * amplitude}})

    plus_report, plus_u = run(1.0)
    minus_report, minus_u = run(-1.0)
    assert minus_report == plus_report
    assert np.array_equal(minus_u.values, -plus_u.values)


# ---------------------------------------------------------------- sweep


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([6, 8]),
    p=st.floats(1.01, 20.0),
    kind=st.sampled_from(["constant", "sine_bump"]),
    sign=st.sampled_from([1.0, -1.0]),
    k=st.integers(-300, 0),
)
def test_any_forcing_verifies_or_fails_typed(n, p, kind, sign, k):
    config = {"grid_n": n, "p": p, "coupling": {"constant": 1}, "forcing": {kind: sign * 10.0**k}}
    code, out, err = run_cli(config)
    assert code in (0, 1, 2)
    if code == 2:
        # the one data error a valid config can meet: ForcingTooLargeError
        assert "exceeds the admissible bound" in err
    elif k >= -100:
        assert code == 0, out
