"""Ball-constants tests: closed-form radii, bisection certificates, the
eigenfunction's constants against the best of 64 smoothed random fields,
and the residual bound audit."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spball import (
    AssumptionViolationError,
    ForcingTooLargeError,
    OutsideBallError,
    ScalarField,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from spball.ball import (
    BALL_RTOL,
    BallSpec,
    CONSTANT_FLOOR,
    FirstMode,
    admissible_radius,
    estimate_constants,
)
from spball.energy import ProblemSpec, _signed_power
from spball.poisson import compute_phi
from spball.sampling import smoothed_random_fields

from conftest import ball_samples, check_residual_bound, e1_field_sums, w2n_norm


def make_spec(n=6, p=3.0, coupling=1.0, forcing=1.0):
    g = build_grid(n)
    return ProblemSpec(
        p=p,
        coupling=ScalarField(g, np.full(g.shape, coupling)),
        forcing=ScalarField(g, np.full(g.shape, forcing)),
    )


# ---------------------------------------------------------------- sampling


def test_smoothed_random_fields_deterministic():
    g = build_grid(5)
    a = smoothed_random_fields(g, 6, seed=3)
    b = smoothed_random_fields(g, 6, seed=3)
    assert len(a) == 6
    for u, v in zip(a, b):
        assert np.array_equal(u.values, v.values)
    c = smoothed_random_fields(g, 6, seed=4)
    assert not np.array_equal(a[0].values, c[0].values)


def test_smoothed_random_fields_count():
    g = build_grid(5)
    assert smoothed_random_fields(g, 0, seed=3) == []
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        smoothed_random_fields(g, -1, seed=3)


@pytest.mark.parametrize("n", [5, 9])
def test_smoothed_random_fields_match_mode_sum(n):
    # oracle: the 4-operand mode sum with the same draw order, coeffs then noise
    g = build_grid(n)
    fields = smoothed_random_fields(g, 6, seed=13)
    rng = np.random.default_rng(13)
    modes = np.arange(1, 5)
    sines = np.sin(np.pi * np.outer(modes, np.arange(1, n) / n))
    k2 = modes[:, None, None] ** 2 + modes[None, :, None] ** 2 + modes[None, None, :] ** 2
    for i, u in enumerate(fields):
        coeffs = rng.standard_normal((4, 4, 4)) / k2
        smooth = np.einsum("abc,ai,bj,ck->ijk", coeffs, sines, sines, sines)
        noise = rng.standard_normal(g.shape)
        for _ in range(2):  # (2 c + sum of the 6 neighbours) / 8 with zero padding
            w = np.pad(noise, 1)
            nb = sum(np.roll(w, s, axis)[1:-1, 1:-1, 1:-1] for axis in range(3) for s in (1, -1))
            noise = (2.0 * noise + nb) / 8.0
        noise *= 0.25 * np.sqrt(np.mean(smooth**2)) / np.sqrt(np.mean(noise**2))
        expected = (0.1, 1.0, 10.0)[i % 3] * (smooth + noise)
        assert np.abs(u.values - expected).max() <= 1e-13 * np.abs(expected).max()


def test_ball_samples_lie_in_ball():
    g = build_grid(5)
    radius = 2.5
    for u in ball_samples(g, 12, seed=9, radius=radius):
        assert w2n_norm(u) <= radius * (1.0 + 1e-12)
        assert w2n_norm(u) > 0.0


# ---------------------------------------------------------------- estimation


@functools.lru_cache(maxsize=None)
def estimation_family(n, seed):
    """The first eigenfunction, then 64 smoothed random fields."""
    g = build_grid(n)
    return (first_eigenpair(g)[0], *smoothed_random_fields(g, 64, seed))


def test_estimate_constants_zero_coupling_hits_floor():
    spec = make_spec(coupling=0.0)
    ball, _ = estimate_constants(spec.p, spec.coupling)
    assert ball.coupling_constant == ball.potential_constant == CONSTANT_FLOOR
    assert ball.power_constant > CONSTANT_FLOOR


def test_estimate_constants_validation():
    spec = make_spec()
    for safety in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="safety"):
            estimate_constants(spec.p, spec.coupling, safety=safety)
    for p in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="p must"):
            estimate_constants(p, spec.coupling)


def test_estimate_constants_requires_nonnegative_coupling():
    # the sign is checked once, at entry, as ProblemSpec checks it; the
    # potentials a run solves for read no minimum of the coupling
    g = build_grid(4)
    for bad in (ScalarField(g, -np.ones(g.shape)), ScalarField.constant(g, -1.0)):
        with pytest.raises(AssumptionViolationError, match="nonnegative"):
            estimate_constants(3.0, bad)


def test_estimation_ratios_scale_invariant():
    spec = make_spec(p=7.0)
    u = smoothed_random_fields(spec.grid, 1, seed=11)[0]
    ratios = []
    for t in (1.0, 3.0):
        v = t * u
        w = w2n_norm(v)
        phi = compute_phi(v, spec.coupling)
        num_c = lp_norm(ScalarField(spec.grid, phi.values * v.values), 3)
        num_p = lp_norm(ScalarField(spec.grid, _signed_power(v.values, spec.p)), 3)
        ratios.append((num_c / w**3, num_p / w**spec.p))
    assert_allclose(ratios[0], ratios[1], rtol=1e-8)


def test_estimate_constants_dominate_family():
    # safety = 2 means every ratio in the family sits at or below constant/2
    spec = make_spec(p=3.0)
    ball, _ = estimate_constants(spec.p, spec.coupling, safety=2.0)
    c_coupling, c_power = ball.coupling_constant, ball.power_constant
    for u in estimation_family(spec.grid.n, seed=5):
        w = w2n_norm(u)
        phi = compute_phi(u, spec.coupling)
        rc = lp_norm(ScalarField(spec.grid, spec.coupling.values * phi.values * u.values), 3) / w**3
        rp = lp_norm(ScalarField(spec.grid, _signed_power(u.values, spec.p)), 3) / w**spec.p
        assert rc <= 0.5 * c_coupling * (1.0 + 1e-12)
        assert rp <= 0.5 * c_power * (1.0 + 1e-12)


def coupling_spec(n, kind, p=7.0):
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = {
        "constant": ScalarField(g, np.ones(g.shape)),
        "sine_bump": 1e8 * e1,
        "zero": ScalarField.zeros(g),
    }[kind]
    return ProblemSpec(p=p, coupling=coupling, forcing=e1)


def coupling_ratio(u, spec):
    phi = compute_phi(u, spec.coupling)
    num = lp_norm(ScalarField(spec.grid, spec.coupling.values * phi.values * u.values), 3)
    return num / w2n_norm(u) ** 3


# p = 7 cases carry no p suffix, so their ids stay stable; p = 1.01 leaves
# the power ratio the least margin
NO_SKIP_CASES = [
    pytest.param(
        n, kind, seed, reverse, p,
        id=f"{n}-{kind}-{seed}-{reverse}" + ("" if p == 7.0 else f"-p{p:g}"),
    )
    for p in (7.0, 3.0, 1.01, 400.0)
    for n in (6, 8, 12)
    for kind in ("constant", "sine_bump", "zero")
    for seed in (3, 11)
    for reverse in (False, True)
]


@functools.lru_cache(maxsize=None)
def family_coupling_ratios(n, kind, seed):
    # independent of p, so the four exponents share one set of solves
    spec = coupling_spec(n, kind)
    return tuple(coupling_ratio(u, spec) for u in estimation_family(n, seed))


# the sums over one axis against the cube passes they replace: the power
# ratio raises one rounding of s_i / w^(1/3) to the 3p-th power
AXIS_SUM_RTOL = 1e-13


@pytest.mark.parametrize("n, kind, seed, reverse, p", NO_SKIP_CASES)
def test_estimate_constants_match_no_skip_oracle(n, kind, seed, reverse, p):
    # the maxima over the eigenfunction and 64 smoothed random fields, every
    # potential solved and every power pass run, written inline: the
    # eigenfunction's ratios dominate every sampled field's exactly, and the
    # eigenfunction alone gives the same constants within the sums' rounding;
    # reversed, the oracle meets the eigenfunction last, after every sampled field
    spec = coupling_spec(n, kind, p)
    family = estimation_family(n, seed)
    ratios = family_coupling_ratios(n, kind, seed)
    if reverse:
        family, ratios = family[::-1], ratios[::-1]
    best_c = best_p = 0.0
    for u, ratio in zip(family, ratios):
        w = w2n_norm(u)
        best_c = max(best_c, ratio)
        best_p = max(best_p, lp_norm(ScalarField(spec.grid, np.abs(u.values / w) ** spec.p), 3))
    e1 = estimation_family(n, seed)[0]
    e1_ratios = (family_coupling_ratios(n, kind, seed)[0],
                 lp_norm(ScalarField(spec.grid, np.abs(e1.values / w2n_norm(e1)) ** spec.p), 3))
    assert e1_ratios == (best_c, best_p)
    expected = (max(2.0 * best_c, CONSTANT_FLOOR), max(2.0 * best_p, CONSTANT_FLOOR))
    ball, _ = estimate_constants(spec.p, spec.coupling)
    got = (ball.coupling_constant, ball.power_constant)
    assert_allclose(got, expected, rtol=AXIS_SUM_RTOL, atol=0.0)
    if kind == "zero":
        assert expected[0] == got[0] == CONSTANT_FLOOR


@pytest.mark.parametrize("n", [6, 8, 16, 32])
@pytest.mark.parametrize("p", [1.01, 3.0, 7.0, 400.0])
def test_first_mode_sums_match_the_cube_passes(n, p):
    # ||e1||_3, its ball norm w against the stencil's, ||grad e1||^2 against
    # the stencil's pairing with e1, and the power ratio against |e1/w|^p
    g = build_grid(n)
    _, lam = first_eigenpair(g)
    _, mode = estimate_constants(p, ScalarField.constant(g, 1.0))
    power_ratio = mode.power_sum(mode.lam * mode.norm, 3.0 * p)
    field_norm, field_w, field_grad_sq, field_power = e1_field_sums(g, p)
    assert mode.lam == lam
    assert mode.norm == field_norm
    assert_allclose(mode.lam * mode.norm, field_w, rtol=AXIS_SUM_RTOL, atol=0.0)
    assert_allclose(mode.grad_sq, field_grad_sq, rtol=AXIS_SUM_RTOL, atol=0.0)
    assert_allclose(power_ratio, field_power, rtol=AXIS_SUM_RTOL, atol=0.0)
    # e1/w is below 1 everywhere, so at p = 400 both underflow to zero alike
    assert (power_ratio == 0.0) == (p == 400.0) == (field_power == 0.0)


def test_estimate_constants_hand_on_the_first_mode():
    # the FirstMode holds the grid's e1, its potential and the numbers the
    # start reads, ||e1||_3 and ||grad phi_e1||^2 = <c phi_e1 e1, e1> h^3; its
    # eigenvalue and axis factor are the grid's
    spec = make_spec(n=8, p=7.0)
    e1, lam = first_eigenpair(spec.grid)
    _, mode = estimate_constants(spec.p, spec.coupling)
    phi = compute_phi(e1, spec.coupling)
    assert np.array_equal(mode.e1.values, e1.values) and mode.lam == lam
    assert np.array_equal(mode.e1.grid.e1_axis, spec.grid.sine_table[2 : 2 * spec.grid.n : 2])
    assert np.array_equal(mode.phi.values, phi.values)
    assert mode.norm == lp_norm(e1, 3)
    pairing = float(np.vdot(spec.coupling.values * phi.values * e1.values, e1.values))
    assert_allclose(mode.phi_grad_sq, pairing * spec.grid.h**3, rtol=1e-15, atol=0.0)


def test_first_mode_stores_only_what_was_computed_from_fields():
    assert [f.name for f in dataclasses.fields(FirstMode)] == ["e1", "norm", "phi", "phi_grad_sq"]


@pytest.mark.parametrize("n", [3, 4, 8, 32, 64, 128])
def test_first_mode_grid_values_equal_their_axis_formulas(n):
    # lambda_h, ||grad e1||^2 and the power sums, each bit for bit against its
    # expression over e1's axis factor s = T[2i]
    g = build_grid(n)
    T, h = g.sine_table, g.h
    s = T[2 : 2 * n : 2]
    lam = 12.0 * float(T[1]) ** 2 / h**2
    e1 = first_eigenpair(g)[0]
    mode = FirstMode(e1, lp_norm(e1, 3), ScalarField.zeros(g), 0.0)
    assert mode.lam == lam
    assert mode.grad_sq == lam * (h * float(np.vdot(s, s))) ** 3
    for d, q in ((mode.lam * mode.norm, 21.0), (0.37, 4.0), (1e-3, 8.0)):
        assert mode.power_sum(d, q) == h * float(np.sum((s / np.cbrt(d)) ** q))


def test_estimate_constants_solve_count(solve_counter):
    # the eigenfunction's potential is the only solve
    spec = make_spec(n=8, p=7.0)
    _, count = solve_counter(estimate_constants, spec.p, spec.coupling)
    assert count == 1


def test_estimate_constants_deterministic():
    spec = make_spec(p=7.0)
    first = estimate_constants(spec.p, spec.coupling)
    second = estimate_constants(spec.p, spec.coupling)
    assert first[0] == second[0]
    assert np.array_equal(first[1].phi.values, second[1].phi.values)


# ---------------------------------------------------------------- radius


def test_admissible_radius_closed_forms():
    # vanishing power constant: r^2 = 1/2
    assert_allclose(admissible_radius(1.0, 1e-30, 3.0), math.sqrt(0.5), rtol=1e-12)
    # equal constants at p = 3: 2 r^2 = 1/2
    assert_allclose(admissible_radius(1.0, 1.0, 3.0), 0.5, rtol=1e-12)
    # p = 7: root of r^2 + r^6 = 1/2 lies in (0.65, 0.66)
    r = admissible_radius(1.0, 1.0, 7.0)
    assert 0.65 < r < 0.66
    g = lambda x: x**2 + x**6 - 0.5
    assert g(0.65) < 0.0 < g(0.66)


def test_admissible_radius_bracket_certificate():
    for c1, c2, p in [(1.0, 1.0, 7.0), (0.3, 2.0, 2.5), (1e-6, 1e-9, 7.0), (5.0, 0.01, 3.0)]:
        r = admissible_radius(c1, c2, p)
        g = lambda x: c1 * x * x + c2 * x ** (p - 1.0) - 0.5
        assert g(r * (1.0 - 1e-9)) <= 0.0
        assert g(r * (1.0 + 1e-9)) >= 0.0


def test_admissible_radius_monotone_in_constants():
    base = admissible_radius(1.0, 1.0, 3.0)
    assert admissible_radius(2.0, 1.0, 3.0) < base
    assert admissible_radius(1.0, 2.0, 3.0) < base
    assert admissible_radius(0.5, 0.5, 3.0) > base


def test_admissible_radius_inequality_on_log_grid():
    for c1, c2, p in [(1.0, 1.0, 7.0), (4e-6, 7e-9, 7.0), (0.2, 0.8, 2.0)]:
        r1 = admissible_radius(c1, c2, p)
        for r in np.geomspace(r1 * 1e-6, r1, 100):
            assert c1 * r**3 + c2 * r**p <= 0.5 * r * (1.0 + 1e-14)


def test_admissible_radius_huge_exponent():
    # r^(p-1) overflows a float while bracketing the root; g is then taken as positive
    c1, c2, p = 0.1, CONSTANT_FLOOR, 1e5
    r1 = admissible_radius(c1, c2, p)
    assert 1.0 < r1 < 2.0
    assert c1 * r1**2 + c2 * r1 ** (p - 1.0) <= 0.5


def test_admissible_radius_validation():
    with pytest.raises(ValueError):
        admissible_radius(0.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        admissible_radius(1.0, -1.0, 3.0)
    with pytest.raises(ValueError):
        admissible_radius(1.0, 1.0, 1.0)
    # a root near 1e-1030, below every positive float: no radius satisfies
    # the inequality, and none is returned
    with pytest.raises(ValueError, match="smallest positive float"):
        admissible_radius(1.0, 1e10, 1.01)


# ---------------------------------------------------------------- ball spec


def test_ball_spec_invariants_enforced():
    BallSpec(1.0, 1.0, 1.0, 0.5, 3.0)  # exact root is fine
    with pytest.raises(ValueError):
        BallSpec(1.0, 1.0, 1.0, 0.6, 3.0)  # violates the radius inequality
    with pytest.raises(ValueError):
        BallSpec(-1.0, 1.0, 1.0, 0.5, 3.0)
    with pytest.raises(ValueError, match="potential_constant"):
        BallSpec(1.0, 1.0, 0.0, 0.5, 3.0)


def test_ball_spec_rejects_a_tiny_radius_that_fails_the_inequality():
    # coupling_constant r^3 = 1e-12 is 200 times r / 2 = 5e-15; an absolute
    # 1e-12 slack on both sides of the inequality let it pass
    with pytest.raises(ValueError, match="ball radius 1.000000e-14 fails"):
        BallSpec(1e30, 1.0, 1.0, 1e-14, 3.0)
    # the same ball at radius 1, the constants scaled to keep each term of
    # the inequality over r, is rejected alike
    with pytest.raises(ValueError, match="ball radius"):
        BallSpec(100.0, 1e-28, 1.0, 1.0, 3.0)


@pytest.mark.parametrize("r", [1e-148, 1e-20, 0.5, 1e100])
def test_ball_membership_is_relative_to_the_radius(r):
    # both membership tests read the same on a ball of any size: the closed
    # ball includes its boundary, up to BALL_RTOL relative, and nothing more
    c = 0.125 / (r * r)  # coupling_constant r^2 = power_constant r^(p-1) = 1/8
    ball = BallSpec(c, c, 1.0, r, 3.0)
    assert ball.contains(0.0) and ball.contains(0.5 * r) and ball.contains(r)
    assert ball.contains(r * (1.0 + 0.5 * BALL_RTOL))
    assert not ball.contains(r * (1.0 + 1e-9))
    ball.check_forcing(0.5 * r)
    with pytest.raises(ForcingTooLargeError):
        ball.check_forcing(0.5 * r * (1.0 + 1e-9))


def test_admissible_radius_is_what_ball_spec_accepts():
    # the bisection and the validation evaluate one inequality, so every
    # radius the bisection returns builds a BallSpec, with no slack
    for c1, c2, p in ((1.0, 1.0, 3.0), (1e30, 1.0, 3.0), (1e300, 1e-30, 1.01),
                      (1e-30, 1e-30, 400.0), (3.7, 0.2, 7.0)):
        r = admissible_radius(c1, c2, p)
        BallSpec(c1, c2, 1.0, r, p)


def test_estimate_constants_ball_consistent():
    spec = make_spec(p=7.0)
    ball, _ = estimate_constants(spec.p, spec.coupling)
    assert ball.radius == admissible_radius(ball.coupling_constant, ball.power_constant, spec.p)
    assert ball.forcing_bound == 0.5 * ball.radius
    assert ball.p == spec.p
    # floor-constant couplings produce enormous but still valid radii
    spec0 = make_spec(coupling=0.0, p=7.0)
    ball0, _ = estimate_constants(spec0.p, spec0.coupling)
    assert ball0.radius > ball.radius


# ---------------------------------------------------------------- residual bound


def test_check_residual_bound_zero_field():
    spec = make_spec()
    ball, _ = estimate_constants(spec.p, spec.coupling)
    lhs, rhs, holds = check_residual_bound(ScalarField.zeros(spec.grid), ball, spec)
    assert holds
    assert_allclose(lhs, lp_norm(spec.forcing, 3), rtol=1e-12)
    assert lhs <= rhs


def test_check_residual_bound_boundary_eigenfunction():
    # the eigenfunction sets both constants, so the bound must hold with
    # factor-2 headroom even on the ball boundary
    spec = make_spec(p=7.0)
    ball, _ = estimate_constants(spec.p, spec.coupling)
    e1, _ = first_eigenpair(spec.grid)
    u = (ball.radius / w2n_norm(e1)) * e1
    lhs, rhs, holds = check_residual_bound(u, ball, spec)
    assert holds


def test_check_residual_bound_random_audit():
    spec = make_spec(p=3.0)
    ball, _ = estimate_constants(spec.p, spec.coupling)
    for u in ball_samples(spec.grid, 20, seed=77, radius=ball.radius):
        lhs, rhs, holds = check_residual_bound(u, ball, spec)
        assert holds, (lhs, rhs)


def test_check_residual_bound_outside_ball_raises():
    spec = make_spec()
    ball, _ = estimate_constants(spec.p, spec.coupling)
    e1, _ = first_eigenpair(spec.grid)
    outside = (2.0 * ball.radius / w2n_norm(e1)) * e1
    with pytest.raises(OutsideBallError):
        check_residual_bound(outside, ball, spec)
