"""Energy functional tests: a fully independent dense oracle, finite-difference
consistency of the first variation, split/restriction identities, the
gradient representations and the power kernel against libm pow."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spball.energy as energy_module
from spball import (
    AssumptionViolationError,
    GridMismatchError,
    ScalarField,
    apply_laplacian,
    build_grid,
    compute_phi,
    first_eigenpair,
    lp_norm,
)
from spball.energy import (
    ProblemSpec,
    _signed_power,
    energy,
    evaluate,
)
from spball.grid import neg_laplacian_array
from spball.minimize import initial_guess

from conftest import (
    dense_neg_laplacian,
    directional_derivative,
    equation_rhs,
    h1_inner,
    l2_inner,
    random_field,
    standard_problem,
    w2n_norm,
)


def make_spec(n=4, p=3.0, coupling=1.0, forcing=1.0):
    g = build_grid(n)
    return ProblemSpec(
        p=p,
        coupling=ScalarField(g, np.full(g.shape, coupling)),
        forcing=ScalarField(g, np.full(g.shape, forcing)),
    )


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(AssumptionViolationError):
        make_spec(p=1.0)
    with pytest.raises(AssumptionViolationError):
        make_spec(coupling=-0.5)
    g = build_grid(4)
    with pytest.raises(AssumptionViolationError):
        ProblemSpec(p=3.0, coupling=ScalarField.constant(g, -1.0),
                    forcing=ScalarField.zeros(g))
    # the forcing may take any sign, zero included
    for value in (0.0, -1.0, 1.0):
        assert np.all(make_spec(forcing=value).forcing.values == value)
    assert make_spec(forcing=-1.0).forcing_norm == make_spec(forcing=1.0).forcing_norm


def test_spec_grid_mismatch():
    g, g5 = build_grid(4), build_grid(5)
    with pytest.raises(GridMismatchError):
        ProblemSpec(
            p=3.0,
            coupling=ScalarField(g5, np.ones(g5.shape)),
            forcing=ScalarField(g, np.ones(g.shape)),
        )
    # the problem's grid is the coupling's
    coupling = ScalarField(g5, np.ones(g5.shape))
    assert ProblemSpec(p=3.0, coupling=coupling, forcing=ScalarField.zeros(g5)).grid is g5
    spec = make_spec()
    with pytest.raises(GridMismatchError):
        energy(evaluate(ScalarField.zeros(g5), spec))


# ---------------------------------------------------------------- energy values


def test_energy_zero_field_is_zero():
    spec = make_spec()
    s = evaluate(ScalarField.zeros(spec.grid), spec)
    assert s.terms == (0.0, 0.0, 0.0, 0.0)
    assert energy(s) == 0.0


def test_energy_against_dense_oracle(rng):
    # independent evaluation: dense Poisson solve + fsum of each term
    n, p = 4, 7.0
    spec = make_spec(n=n, p=p)
    g = spec.grid
    u = random_field(g, rng, scale=0.8)
    a = dense_neg_laplacian(n)
    h3 = g.h**3
    uv = u.values.ravel()
    phi = np.linalg.solve(a, uv**2)
    kinetic = 0.5 * math.fsum(uv * (a @ uv)) * h3
    coupling = 0.25 * math.fsum(phi * uv**2) * h3
    power = math.fsum(np.abs(uv) ** (p + 1.0)) * h3 / (p + 1.0)
    forcing = math.fsum(uv) * h3
    expected = kinetic + coupling - power - forcing
    s = evaluate(u, spec)
    assert_allclose(s.terms[0], kinetic, rtol=1e-12)
    assert_allclose(s.terms[1], coupling, rtol=1e-10)
    assert_allclose(s.terms[2], power, rtol=1e-12)
    assert_allclose(s.terms[3], forcing, rtol=1e-12)
    assert_allclose(energy(s), expected, rtol=1e-9, atol=1e-12)


def test_energy_total_is_exact_term_sum(rng):
    spec = make_spec(n=5)
    u = random_field(spec.grid, rng)
    s = evaluate(u, spec)
    kinetic, coupling, power, forcing = s.terms
    assert energy(s) == kinetic + coupling - power - forcing


def test_energy_negative_dip_for_small_positive_fields():
    # along t * e1 the forcing term -t*int(f e1) dominates as t -> 0+
    spec = make_spec(n=6, p=3.0)
    e1, _ = first_eigenpair(spec.grid)
    assert energy(evaluate(0.05 * e1, spec)) < 0.0


def test_energy_split_identity(rng):
    # total = convex - smooth with the kinetic term as the convex part and
    # the rest, sign flipped, as the smooth part
    spec = make_spec(n=5, p=7.0)
    u = random_field(spec.grid, rng, scale=0.5)
    s = evaluate(u, spec)
    kinetic, coupling, power, forcing = s.terms
    convex, smooth = kinetic, -coupling + power + forcing
    assert_allclose(convex - smooth, energy(s), rtol=1e-12, atol=1e-15)
    assert convex >= 0.0


def test_energy_split_convex_part_is_convex(rng):
    # the kinetic term, the split's convex part, is convex along segments
    spec = make_spec(n=4)
    u, v = random_field(spec.grid, rng), random_field(spec.grid, rng)
    for theta in (0.0, 0.25, 0.5, 0.9, 1.0):
        mix = theta * u + (1.0 - theta) * v
        lhs = evaluate(mix, spec).terms[0]
        rhs = (
            theta * evaluate(u, spec).terms[0]
            + (1.0 - theta) * evaluate(v, spec).terms[0]
        )
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------- first variation


def test_directional_derivative_at_zero(rng):
    # at u = 0 every nonlinear term vanishes: d/dt E(tv) = -int(f v)
    spec = make_spec(n=5)
    v = random_field(spec.grid, rng)
    got = directional_derivative(evaluate(ScalarField.zeros(spec.grid), spec), spec, v)
    assert_allclose(got, -l2_inner(spec.forcing, v), rtol=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0, 7.0])
def test_directional_derivative_matches_finite_differences(p, rng):
    spec = make_spec(n=5, p=p)
    for _ in range(4):
        u = random_field(spec.grid, rng, scale=0.7)
        v = random_field(spec.grid, rng, scale=0.7)
        dd = directional_derivative(evaluate(u, spec), spec, v)
        best = math.inf
        for eps in (1e-4, 1e-5, 1e-6):
            e_plus = energy(evaluate(u + eps * v, spec))
            e_minus = energy(evaluate(u - eps * v, spec))
            fd = (e_plus - e_minus) / (2 * eps)
            best = min(best, abs(fd - dd) / max(abs(dd), 1e-30))
        assert best <= 1e-6


# ---------------------------------------------------------------- gradients


def test_gradient_field_l2_at_zero_is_minus_forcing():
    spec = make_spec(n=4)
    g = evaluate(ScalarField.zeros(spec.grid), spec).residual
    assert_allclose(g.values, -spec.forcing.values, rtol=0, atol=0)


def test_gradient_field_l2_pairs_to_directional_derivative(rng):
    spec = make_spec(n=5, p=3.0)
    s = evaluate(random_field(spec.grid, rng, scale=0.5), spec)
    v = random_field(spec.grid, rng)
    g = s.residual
    assert_allclose(l2_inner(g, v), directional_derivative(s, spec, v), rtol=1e-10)


def test_gradient_field_sobolev_is_riesz_representative(rng):
    spec = make_spec(n=5, p=3.0)
    s = evaluate(random_field(spec.grid, rng, scale=0.5), spec)
    w = s.g
    for _ in range(3):
        v = random_field(spec.grid, rng)
        dd = directional_derivative(s, spec, v)
        scale = max(abs(dd), h1_inner(w, w), 1.0)
        assert abs(h1_inner(w, v) - dd) <= 1e-9 * scale


def test_strong_residual_composition(rng):
    # the strong residual is -Delta_h u minus the right-hand side
    # -c phi_u u + sign(u)|u|^p + f, written out here
    spec = make_spec(n=4, p=7.0)
    u = random_field(spec.grid, rng, scale=0.3)
    s = evaluate(u, spec)
    rhs = (
        -spec.coupling.values * compute_phi(u, spec.coupling).values * u.values
        + np.sign(u.values) * np.abs(u.values) ** spec.p
        + spec.forcing.values
    )
    assert_allclose(
        apply_laplacian(u).values - rhs,
        s.residual.values,
        rtol=0,
        atol=0,
    )


# ---------------------------------------------------------------- held quantities


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
@pytest.mark.parametrize("coupling_kind", ["constant", "sine_bump"])
def test_state_holds_the_laplacian_and_the_energy_terms(n, p, coupling_kind, rng):
    # the state's residual is the grid's stencil less the right-hand side,
    # bit for bit, with the right-hand side's L3 norm, its kinetic term pairs
    # that stencil with u, the range of the potential is its own, and its
    # terms agree with the term formulas the state replaced, written inline
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = ScalarField(g, np.ones(g.shape)) if coupling_kind == "constant" else 1e3 * e1
    forcing = ScalarField(g, rng.uniform(0.5, 1.5, g.shape))
    spec = ProblemSpec(p=p, coupling=coupling, forcing=forcing)
    u = random_field(g, rng, scale=0.7)
    s = evaluate(u, spec)
    lap = apply_laplacian(u)
    rhs = equation_rhs(u, spec)
    phi = compute_phi(u, spec.coupling)
    assert s.terms[0] == 0.5 * float(np.vdot(lap.values, u.values)) * g.h**3
    assert np.array_equal(s.residual.values, (lap - rhs).values)
    assert s.rhs_norm == lp_norm(rhs, 3)
    assert s.phi_range == (float(phi.values.min()), float(phi.values.max()))

    h3 = g.h**3
    kinetic = 0.5 * h1_inner(u, u)
    coupling_term = 0.25 * float(np.sum(coupling.values * phi.values * u.values**2)) * h3
    power = float(np.sum(np.abs(u.values) ** (p + 1.0))) * h3 / (p + 1.0)
    forcing_term = l2_inner(forcing, u)
    assert_allclose(s.terms, (kinetic, coupling_term, power, forcing_term), rtol=1e-13, atol=0)
    assert s.grad_sq == 2.0 * s.terms[0]
    assert s.w2n == w2n_norm(u)


def test_a_state_has_one_gradient(rng, monkeypatch):
    # gradient_field runs once per state, retracted or not, and a copy made
    # by dataclasses.replace shares that gradient rather than forming one
    calls = []
    gradient_field_ = energy_module.gradient_field

    def counting(u, lap, rhs):
        calls.append(u)
        return gradient_field_(u, lap, rhs)

    monkeypatch.setattr(energy_module, "gradient_field", counting)
    spec = ProblemSpec(p=3.0, coupling=ScalarField.constant(build_grid(6), 1.0),
                       forcing=first_eigenpair(build_grid(6))[0])
    u = random_field(spec.grid, rng)
    s = evaluate(u, spec)
    retracted = evaluate(u, spec, 0.5 * s.w2n)
    copy = replace(s, phi_range=(0.0, 1.0))
    assert calls == [s.u, retracted.u]  # fields compare by identity
    assert (copy.g, copy.residual, copy.residual_norm, copy.rhs_norm) == (
        s.g, s.residual, s.residual_norm, s.rhs_norm)


def _built_state(how, rng):
    """A state built the given way on the n=8, p=3 standard problem."""
    spec, ball, mode = standard_problem(n=8, p=3.0)
    u = random_field(spec.grid, rng, scale=0.5)
    if how == "evaluate":
        return evaluate(u, spec)
    if how == "retracted":
        s = evaluate(u, spec, 0.5 * w2n_norm(u))
        assert s.u is not u
        return s
    if how == "start":
        s = initial_guess(spec, ball, mode)
        assert s.u.values.any() and s.u.values.min() >= 0.0  # a multiple of e1
        return s
    # a forcing too small to register: the start is the zero field
    s = initial_guess(replace(spec, forcing=1e-200 * spec.forcing), ball, mode)
    assert not s.u.values.any() and s.residual.values.any()
    return s


@pytest.mark.parametrize("how", ["evaluate", "retracted", "start", "zero_start"])
def test_every_state_carries_its_gradient(how, rng):
    # -Delta_h g = residual up to solve rounding, the residual's norm is its
    # L3 norm, and rhs_norm is the ball norm of T(u) = u - g
    s = _built_state(how, rng)
    h = s.u.grid.h
    scale = float(np.abs(apply_laplacian(s.u).values).max() + np.abs(s.residual.values).max())
    assert_allclose(neg_laplacian_array(s.g.values, h), s.residual.values,
                    rtol=0, atol=1e-12 * scale)
    assert s.residual_norm == lp_norm(s.residual, 3)
    assert_allclose(s.rhs_norm, w2n_norm(s.u - s.g), rtol=1e-12, atol=0)


# ---------------------------------------------------------------- power kernel


def _pow_reference(u, p):
    """sign(u)|u|^p by libm pow, the kernel's form for non-integral p."""
    return np.copysign(np.abs(u) ** p, u)


def _power_inputs(p, rng):
    # magnitudes from below the subnormal range of |u|^p to near its overflow,
    # both signs, zeros of both signs and subnormal inputs
    logs = rng.uniform(-330.0 / p, 300.0 / p, 20000)
    u = np.copysign(10.0 ** logs, rng.standard_normal(logs.size))
    u[:6] = [0.0, -0.0, 5e-324, -1e-310, -3e-320, 2.2250738585072014e-308]
    return u


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 7.0])
def test_integral_power_by_products_is_within_its_error_bound(p, rng):
    # square-and-multiply rounds at most about p - 1 times against pow's once:
    # (p - 1) eps relative, at most 6 eps at p = 7. Below the normal range the
    # same bound, taken at its edge, is the floor
    u = _power_inputs(p, rng)
    rtol = (p - 1.0) * np.finfo(float).eps
    got, ref = _signed_power(u, p), _pow_reference(u, p)
    assert_allclose(got, ref, rtol=rtol, atol=rtol * np.finfo(float).smallest_normal)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert (got == 0.0).any() and (np.abs(got) < np.finfo(float).smallest_normal).sum() > 6
    assert not np.shares_memory(got, u)


@pytest.mark.parametrize("p", [1.01, 1.5, 7.5, 8.0, 20.0, 400.0])
def test_other_powers_are_pow_bit_for_bit(p, rng):
    # non-integral p, and integral p beyond the product range, keep pow
    u = _power_inputs(p, rng)
    got = _signed_power(u, p)
    assert np.array_equal(got.view(np.int64), _pow_reference(u, p).view(np.int64))


@pytest.mark.parametrize("p", [3.0, 7.0])
def test_power_overflow_is_inf_where_pow_overflows_and_fails_the_state(p, rng):
    # about a fifth of the nodes overflow at p = 3
    spec = make_spec(n=6, p=p)
    u = random_field(spec.grid, rng, scale=10.0 ** (308.0 / p))
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = _signed_power(u.values, p), _pow_reference(u.values, p)
        assert np.isinf(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(got[np.isinf(ref)], ref[np.isinf(ref)])
        assert np.isfinite(got[np.isfinite(ref)]).all()
        with pytest.raises(ValueError, match="field values must be finite"):
            evaluate(u, spec)
