"""Poisson solver tests: closed-form eigenfunction inversion, a dense
direct-solve oracle, exactness of the transform solve, manufactured-solution
convergence, and the potential's structural properties (sign, scaling,
quadratic bound)."""

import functools
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spball import (
    GridMismatchError,
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from spball import grid as grid_module
from spball import poisson as poisson_module
from spball.grid import DomainGrid
from spball.poisson import _dst1, compute_phi, solve_dirichlet_poisson
from spball.runner import ExperimentConfig, run_experiment

from conftest import dense_neg_laplacian, grad_l2_norm, random_field


def test_zero_rhs_solves_to_zero_through_the_transforms(monkeypatch):
    # a zero right-hand side takes the one path: both transforms run, and the
    # solution is exact zeros
    g = build_grid(6)
    transforms = []

    def counting(*args):
        transforms.append(args[0])
        return _dst1(*args)

    monkeypatch.setattr(poisson_module, "_dst1", counting)
    sol = solve_dirichlet_poisson(ScalarField.zeros(g))
    assert sol.iterations == 1
    assert len(transforms) == 2
    assert np.array_equal(sol.field.values, np.zeros(g.shape))


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


@pytest.mark.parametrize("n", [4, 5, 7, 32, 64, 128])
def test_sine_matrix_squares_to_scaled_identity(n):
    # S is symmetric and S @ S = (n/2) I, which is why the inverse scale is
    # (2/n)^3; from the exactly reduced table it holds to a few ulp of n/2,
    # where np.sin of the angles pi j k / n missed by 8, 21 and 25 ulp at
    # n = 32, 64 and 128
    g = build_grid(n)
    s = g.sine_factors[0]
    assert np.array_equal(s, s.T)
    eps = np.finfo(float).eps
    assert np.abs(s @ s - 0.5 * n * np.eye(n - 1)).max() <= 3.0 * eps * 0.5 * n
    # e1's axis factor is the first column, k = 1, bit for bit
    axis = s[:, 0]
    assert np.array_equal(first_eigenpair(g)[0].values,
                          axis[:, None, None] * axis[None, :, None] * axis[None, None, :])


@pytest.mark.parametrize("n", [4, 7])
def test_dst1_is_the_sine_sum_along_every_axis(rng, n):
    # oracle: the triple sum sum_abc x_abc sin(pi a i/n) sin(pi b j/n) sin(pi c k/n)
    x = rng.standard_normal((n - 1,) * 3)
    idx = np.arange(1, n)
    s = np.sin(np.pi * np.outer(idx, idx) / n)
    expected = np.einsum("abc,ai,bj,ck->ijk", x, s, s, s)
    out, work = np.empty_like(x), np.empty_like(x)
    sines = build_grid(n).sine_factors[0]
    got = _dst1(x, sines, out, work)
    assert got is out
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # only the first product reads the input, so it may be the work buffer
    work[...] = x
    assert np.array_equal(_dst1(work, sines, np.empty_like(x), work), got)


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
    # the sine table serves e1, the sine matrix and the eigenvalues: one
    # build per run, however many of them read it
    built = []
    original = vars(DomainGrid)["sine_table"].func

    @functools.wraps(original)
    def counting(grid):
        built.append(grid.n)
        return original(grid)

    counted = functools.cached_property(counting)
    counted.__set_name__(DomainGrid, "sine_table")
    monkeypatch.setattr(DomainGrid, "sine_table", counted)
    config = ExperimentConfig.from_dict({
        "grid_n": 8, "p": 7.0, "coupling": {"constant": 1}, "forcing": {"scaled_to_bound": 0.5},
    })
    report, solves = solve_counter(run_experiment, config)
    assert report.verification.passed
    assert solves >= 4
    assert built == [8]


def test_a_run_builds_the_first_eigenfunction_once(monkeypatch):
    # the ball builds e1, which serves the constants, the forcing and the
    # start: one first_eigenpair per run, wherever spball bound the name. A
    # sine_bump coupling builds its own e1 before the ball and frees it once
    # scaled; that second build costs 0.06 ms at n=32 and 6.5 ms at n=128,
    # and the run's peak is unchanged, as it comes later, in the descent
    built = []
    original = grid_module.first_eigenpair

    def counting(grid):
        built.append(grid.n)
        return original(grid)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spball" and getattr(module, "first_eigenpair", None) is original:
            monkeypatch.setattr(module, "first_eigenpair", counting)
    for coupling, forcing, builds in (({"constant": 1}, {"scaled_to_bound": 0.5}, [8]),
                                      ({"sine_bump": 1e3}, {"sine_bump": -0.1}, [8, 8])):
        built.clear()
        config = ExperimentConfig.from_dict({
            "grid_n": 8, "p": 7.0, "coupling": coupling, "forcing": forcing,
        })
        assert run_experiment(config).verification.passed
        assert built == builds


def test_overwrite_solves_in_the_given_buffer(rng):
    # the result is the plain solve's, bit for bit, in f's own array
    g = build_grid(7)
    f = random_field(g, rng)
    plain = solve_dirichlet_poisson(f).field
    address = f.values.__array_interface__["data"][0]
    solved = solve_dirichlet_poisson(f, overwrite=True).field
    assert solved.values.__array_interface__["data"][0] == address
    assert np.array_equal(solved.values, plain.values)
    assert not solved.values.flags.writeable


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
    # phi(t u) = t^2 phi(u), for any sign of t: the solve is linear, so only
    # rounding enters; a constant coupling view and a sine bump
    for n in (6, 8, 16):
        g = build_grid(n)
        for coupling in (ScalarField.constant(g, 1.0), first_eigenpair(g)[0]):
            for _ in range(4):
                u = random_field(g, rng)
                phi1 = compute_phi(u, coupling)
                base = lp_norm(phi1, 2)
                assert base > 0.0
                for t in (0.0, 0.5, 2.0, -3.0):
                    rel = lp_norm(compute_phi(t * u, coupling) - (t * t) * phi1, 2) / base
                    assert rel <= 1e-9, (n, t)


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
