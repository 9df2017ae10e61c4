"""Poisson solver tests: closed-form eigenfunction inversion, a dense
direct-solve oracle, exactness of the transform solve, manufactured-solution
convergence, and the potential's structural properties (sign, scaling,
quadratic bound)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spball import (
    AssumptionViolationError,
    GridMismatchError,
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    grad_l2_norm,
    lp_norm,
)
from spball import grid as grid_module
from spball.grid import _sine_matrix
from spball.poisson import _dst1, compute_phi, solve_dirichlet_poisson
from spball.runner import ExperimentConfig, run_experiment

from conftest import dense_neg_laplacian, random_field


def test_zero_rhs_returns_zero_without_iterating():
    g = build_grid(6)
    sol = solve_dirichlet_poisson(ScalarField.zeros(g))
    assert sol.iterations == 0
    assert np.all(sol.field.values == 0.0)


def test_eigenfunction_inversion():
    # f = lambda_h e1 has the exact discrete solution e1
    g = build_grid(8)
    e1, lam = first_eigenpair(g)
    sol = solve_dirichlet_poisson(ScalarField(g, lam * e1.values))
    err = lp_norm(sol.field - e1, 2) / lp_norm(e1, 2)
    assert err <= 1e-9
    assert sol.iterations >= 1


def test_matches_dense_oracle(rng):
    g = build_grid(4)
    a = dense_neg_laplacian(4)
    f = random_field(g, rng)
    expected = np.linalg.solve(a, f.values.ravel()).reshape(g.shape)
    sol = solve_dirichlet_poisson(f)
    assert_allclose(sol.field.values, expected, rtol=0, atol=1e-11 * np.abs(expected).max())


@pytest.mark.parametrize("n", [4, 5, 7])
def test_transform_solve_is_exact(rng, n):
    # odd and non-power-of-two grids included: the sine transform is exact on any n
    g = build_grid(n)
    f = random_field(g, rng)
    expected = np.linalg.solve(dense_neg_laplacian(n), f.values.ravel()).reshape(g.shape)
    sol = solve_dirichlet_poisson(f)
    assert np.abs(sol.field.values - expected).max() <= 1e-12 * np.abs(expected).max()
    # the true residual ||f + Delta_h w|| in the discrete L2 norm
    assert lp_norm(f - apply_laplacian(sol.field), 2) <= 1e-12 * lp_norm(f, 2)


@pytest.mark.parametrize("n", [4, 5, 7, 32])
def test_sine_matrix_squares_to_scaled_identity(n):
    # S is symmetric and S @ S = (n/2) I, which is why the inverse scale is (2/n)^3
    s = _sine_matrix(n)
    assert np.array_equal(s, s.T)
    assert np.abs(s @ s - 0.5 * n * np.eye(n - 1)).max() <= 1e-13 * 0.5 * n


@pytest.mark.parametrize("n", [4, 7])
def test_dst1_is_the_sine_sum_along_every_axis(rng, n):
    # oracle: the triple sum sum_abc x_abc sin(pi a i/n) sin(pi b j/n) sin(pi c k/n)
    x = rng.standard_normal((n - 1,) * 3)
    idx = np.arange(1, n)
    s = np.sin(np.pi * np.outer(idx, idx) / n)
    expected = np.einsum("abc,ai,bj,ck->ijk", x, s, s, s)
    out, work = np.empty_like(x), np.empty_like(x)
    got = _dst1(x, _sine_matrix(n), out, work)
    assert got is out
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # only the first product reads the input, so it may be the work buffer
    work[...] = x
    assert np.array_equal(_dst1(work, _sine_matrix(n), np.empty_like(x), work), got)


def test_solves_on_distinct_grid_instances_are_equal(rng):
    # the transform factors belong to a grid instance and are built on its
    # first solve; equal grids build equal, read-only factors
    a, b = build_grid(7), build_grid(7)
    assert a == b and a is not b
    assert "sine_factors" not in vars(a)
    f = rng.standard_normal(a.shape)
    wa = solve_dirichlet_poisson(ScalarField(a, f)).field.values
    assert "sine_factors" in vars(a) and "sine_factors" not in vars(b)
    wb = solve_dirichlet_poisson(ScalarField(b, f)).field.values
    assert np.array_equal(wa, wb)
    for fa, fb in zip(a.sine_factors, b.sine_factors):
        assert fa is not fb and np.array_equal(fa, fb)
        assert not fa.flags.writeable


def test_a_run_builds_the_transform_factors_once(monkeypatch, solve_counter):
    built = []

    def counting(n, _original=grid_module._sine_matrix):
        built.append(n)
        return _original(n)

    monkeypatch.setattr(grid_module, "_sine_matrix", counting)
    config = ExperimentConfig.from_dict({
        "grid_n": 8, "p": 7.0, "coupling": {"constant": 1}, "forcing": {"scaled_to_bound": 0.5},
    })
    report, solves = solve_counter(run_experiment, config, write_outputs=False)
    assert report.verification.passed
    assert solves >= 4
    assert built == [8]


def test_solution_linearity(rng):
    g = build_grid(5)
    f1, f2 = random_field(g, rng), random_field(g, rng)
    combo = ScalarField(g, 2.0 * f1.values - 3.0 * f2.values)
    w_combo = solve_dirichlet_poisson(combo).field
    w_sep = (
        2.0 * solve_dirichlet_poisson(f1).field.values
        - 3.0 * solve_dirichlet_poisson(f2).field.values
    )
    assert_allclose(w_combo.values, w_sep, atol=1e-10 * np.abs(w_sep).max())


def test_manufactured_convergence_is_second_order():
    # forcing 3 pi^2 sin(pi x) sin(pi y) sin(pi z); continuum solution is the
    # product of sines, so the discrete error is governed by the eigenvalue gap
    errs = {}
    for n in (8, 16):
        g = build_grid(n)
        star = first_eigenpair(g)[0]
        f = ScalarField(g, 3.0 * np.pi**2 * star.values)
        w = solve_dirichlet_poisson(f).field
        errs[n] = lp_norm(w - star, 2) / lp_norm(star, 2)
    ratio = errs[8] / errs[16]
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------- potential


def test_compute_phi_zero_coupling(rng):
    g = build_grid(5)
    u = random_field(g, rng)
    phi = compute_phi(u, ScalarField.zeros(g))
    assert np.all(phi.values == 0.0)


def test_compute_phi_requires_nonnegative_coupling(rng):
    g = build_grid(4)
    u = random_field(g, rng)
    bad = ScalarField(g, -np.ones(g.shape))
    with pytest.raises(AssumptionViolationError):
        compute_phi(u, bad)


def test_compute_phi_grid_mismatch(rng):
    u = random_field(build_grid(4), rng)
    coupling = ScalarField(build_grid(5), np.ones((4, 4, 4)))
    with pytest.raises(GridMismatchError):
        compute_phi(u, coupling)


def test_compute_phi_dense_oracle(rng):
    g = build_grid(4)
    a = dense_neg_laplacian(4)
    u = random_field(g, rng)
    coupling = ScalarField(g, np.ones(g.shape))
    expected = np.linalg.solve(a, (u.values**2).ravel()).reshape(g.shape)
    phi = compute_phi(u, coupling)
    assert_allclose(phi.values, expected, atol=1e-12 * np.abs(expected).max())


def test_compute_phi_nonnegative(rng):
    # rhs >= 0 and the stencil satisfies a discrete maximum principle, so the
    # potential is nonnegative up to rounding
    g = build_grid(8)
    coupling = ScalarField(g, np.ones(g.shape))
    for _ in range(5):
        u = random_field(g, rng)
        phi = compute_phi(u, coupling)
        floor = -1e-8 * max(1.0, float(np.abs(phi.values).max()))
        assert float(phi.values.min()) >= floor


def test_compute_phi_quadratic_scaling(rng):
    # phi(t u) = t^2 phi(u); solves are deterministic so only rounding enters
    g = build_grid(6)
    coupling = ScalarField(g, np.ones(g.shape))
    u = random_field(g, rng)
    phi1 = compute_phi(u, coupling)
    phi2 = compute_phi(2.0 * u, coupling)
    rel = lp_norm(phi2 - 4.0 * phi1, 2) / lp_norm(phi1, 2)
    assert rel <= 1e-9


def test_compute_phi_gradient_bound_stable_constant(rng):
    # the ratio ||grad phi|| / ||grad u||^2 stays bounded across samples
    g = build_grid(6)
    coupling = ScalarField(g, np.ones(g.shape))
    ratios = []
    for _ in range(8):
        u = random_field(g, rng)
        phi = compute_phi(u, coupling)
        ratios.append(grad_l2_norm(phi) / grad_l2_norm(u) ** 2)
    assert max(ratios) <= 10.0 * min(r for r in ratios if r > 0)
    assert max(ratios) < 1.0  # crude desk-scale sanity bound
