"""Poisson solver tests: closed-form eigenfunction inversion, a dense
direct-solve oracle, exactness of the transform solve, manufactured-solution
convergence, and the potential's structural properties (sign, scaling,
quadratic bound)."""

import functools
import json
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
from spball import runner as runner_module
from spball.ball import estimate_constants
from spball.grid import DomainGrid
from spball.poisson import PoissonSolution, _dst1, compute_phi, solve_dirichlet_poisson
from spball.runner import ExperimentConfig, run_experiment

from conftest import dense_neg_laplacian, grad_l2_norm, random_field, sample_function
from test_hygiene import RUN_CONFIGS
from test_ownership import _peak_in_fields
from test_sweep import CONFIGS as SWEEP_CONFIGS


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
    (s, s_t), inverse, _, _ = g.sine_factors(False)
    assert s_t is s and inverse[0] is s and inverse[1] is s
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
    sines = build_grid(n).sine_factors(False)[0]
    got = _dst1(x, sines, out, work)
    assert got is out
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # only the first product reads the input, so it may be the work buffer
    work[...] = x
    assert np.array_equal(_dst1(work, sines, np.empty_like(x), work), got)


def test_solves_on_distinct_grid_instances_are_equal(rng):
    # the transform factors belong to a grid instance and are built on its
    # first solve of each parity; equal grids build equal, read-only factors
    a, b = build_grid(7), build_grid(7)
    assert a == b and a is not b
    assert "_full_factors" not in vars(a)
    f = rng.standard_normal(a.shape)
    wa = solve_dirichlet_poisson(ScalarField(a, f)).field.values
    assert "_full_factors" in vars(a) and "_full_factors" not in vars(b)
    assert "_sector_factors" not in vars(a)
    wb = solve_dirichlet_poisson(ScalarField(b, f)).field.values
    assert np.array_equal(wa, wb)
    for even in (False, True):
        # (forward, inverse, P, Q), each transform a matrix beside its transpose
        set_a, set_b = a.sine_factors(even), b.sine_factors(even)
        assert set_a is a.sine_factors(even)
        for fa, fb in zip(factor_arrays(set_a), factor_arrays(set_b)):
            assert fa is not fb and np.array_equal(fa, fb)
            assert not fa.flags.writeable
        (forward, forward_t), (inverse, inverse_t), _, _ = set_a
        assert np.array_equal(forward.T, forward_t) and np.array_equal(inverse.T, inverse_t)


def factor_arrays(value) -> list:
    """The arrays in a value cached on a grid, through nested tuples."""
    if isinstance(value, tuple):
        return [a for item in value for a in factor_arrays(item)]
    return [value] if isinstance(value, np.ndarray) else []


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


def test_a_run_leaves_no_cube_cached_on_its_grid(monkeypatch):
    # the inverse eigenvalues are formed on every solve in a transform
    # buffer: after a run's solves the grid holds its sine table, the axes
    # and the sector's sine factors, none of them with (n-1)^3 entries
    grids = []
    init = PoissonSolution.__init__

    def recording_init(self, field, iterations):
        grids.append(field.grid)
        init(self, field, iterations)

    monkeypatch.setattr(PoissonSolution, "__init__", recording_init)
    config = ExperimentConfig.from_dict({
        "grid_n": 8, "p": 3.0, "coupling": {"constant": 1},
        "forcing": {"scaled_to_bound": 1.0}, "safety": 1.0,
    })
    assert run_experiment(config).verification.passed
    assert len(grids) >= 4
    cached = {}
    for grid in {id(g): g for g in grids}.values():
        assert "_sector_factors" in vars(grid)
        for name, value in vars(grid).items():
            cached.update({f"{name}[{i}]": a for i, a in enumerate(factor_arrays(value))})
    assert cached and all(a.size < (config.grid_n - 1) ** 3 for a in cached.values()), {
        name: a.shape for name, a in cached.items()}


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


def mirror_even_values(rng, g) -> np.ndarray:
    """A random cube equal to its mirror image about each midplane, exactly:
    x + flip(x) adds the same two numbers at a node and at its image, and a
    sum of two even cubes is even."""
    x = rng.standard_normal(g.shape)
    for axis in range(3):
        x = x + np.flip(x, axis)
    return x


def is_mirror_even(values: np.ndarray) -> bool:
    return all(np.array_equal(values, np.flip(values, axis)) for axis in range(3))


def full_path(f: ScalarField) -> np.ndarray:
    """The solve of f through the full cube's factors, whatever f's parity."""
    g = f.grid
    forward, inverse, _, _ = g.sine_factors(False)
    first, second = np.empty(g.shape), np.empty(g.shape)
    coeffs = _dst1(f.values, forward, first, second)
    coeffs *= g.inverse_eigenvalues(second)
    return _dst1(coeffs, inverse, second, first)


@pytest.fixture
def transform_sizes(monkeypatch):
    """The edge of every cube a solve's _dst1 writes, in call order."""
    sizes = []

    def recording(values, matrix, out, work):
        sizes.append(len(out))
        return _dst1(values, matrix, out, work)

    monkeypatch.setattr(poisson_module, "_dst1", recording)
    return sizes


@pytest.mark.parametrize("n", range(3, 13))
def test_a_mirror_even_rhs_is_solved_on_its_sector(rng, transform_sizes, n):
    # both transforms run on the (n // 2)^3 sector, odd n and even n alike,
    # and the mirrored solution is the full path's and the dense solve's
    g = build_grid(n)
    x = mirror_even_values(rng, g)
    full = full_path(ScalarField(g, x))
    scale = np.abs(full).max()
    w = solve_dirichlet_poisson(ScalarField(g, x)).field.values
    assert transform_sizes == [n // 2] * 2
    assert np.abs(w - full).max() <= 1e-14 * scale
    assert is_mirror_even(w)
    if n <= 8:
        dense = np.linalg.solve(dense_neg_laplacian(n), x.ravel()).reshape(g.shape)
        assert np.abs(w - dense).max() <= 1e-14 * scale
    # under overwrite the fold mirrors into f's own buffer, with the same bits
    f = ScalarField(g, x)
    address = f.values.__array_interface__["data"][0]
    solved = solve_dirichlet_poisson(f, overwrite=True).field.values
    assert solved.__array_interface__["data"][0] == address
    assert np.array_equal(solved, w)
    # a node off its mirror image along one axis by one ulp, and still even
    # along the other two, takes the full path, whichever the axis
    for axis in range(3):
        transform_sizes.clear()
        y = x.copy()
        images = [slice(None, None, n - 2)] * 3  # the first node and the last
        images[axis] = 0
        y[tuple(images)] = np.nextafter(y[tuple(images)], np.inf)
        nudged = ScalarField(g, y)
        w = solve_dirichlet_poisson(nudged).field.values
        assert transform_sizes == [n - 1] * 2
        assert np.array_equal(w, full_path(nudged))
        assert np.abs(w - full).max() <= 1e-14 * scale


# every config kind of a small run: the run-path configs of the hygiene
# test and the sweep's configs up to n = 16
SMALL_RUNS = {**{f"hygiene-{i}": data for i, data in enumerate(RUN_CONFIGS)},
              **{key: data for key, data in SWEEP_CONFIGS.items() if data["grid_n"] <= 16}}


@pytest.mark.parametrize("key", sorted(SMALL_RUNS))
def test_every_solve_of_a_run_folds(tmp_path, transform_sizes, key):
    # each right-hand side a run solves is mirror-even, exactly, so every
    # transform runs on the sector; a repeat run writes the same bytes
    config = ExperimentConfig.from_dict(SMALL_RUNS[key])
    outputs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_experiment(config, out_dir=out).verification.passed
        report = json.loads((out / "report.json").read_text())
        del report["wall_time"]
        outputs.append((json.dumps(report), (out / "trace.csv").read_bytes()))
    assert len(transform_sizes) >= 8
    assert set(transform_sizes) == {config.grid_n // 2}
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11, 12, 32, 64])
def test_the_first_eigenfunction_and_every_field_kind_are_mirror_even(n):
    # the fields every right-hand side is made of, nodewise, are exactly
    # even: e1 through the quarter-wave sine table, each coupling and
    # forcing kind as a multiple of e1 or a constant
    g = build_grid(n)
    assert is_mirror_even(first_eigenpair(g)[0].values)
    for coupling in ({"constant": 1}, {"sine_bump": 1e3}):
        c = runner_module._build_coupling(g, coupling)
        assert is_mirror_even(c.values)
        ball, mode = estimate_constants(7.0, c)
        for forcing in ({"constant": -1}, {"sine_bump": -0.1}, {"scaled_to_bound": 0.5}):
            f = runner_module._build_forcing(g, forcing, ball.forcing_bound, mode)
            assert is_mirror_even(f.values)


@pytest.mark.parametrize("n", [32, 64])
def test_a_folded_solve_holds_its_output_and_one_sector_cube(n):
    # the evenness test and the mirror copy make no float temporaries, and
    # the second transform buffer lies in the output: a folded solve peaks
    # at its output beside one (n // 2)^3 buffer, and compute_phi, whose
    # solve overwrites c u^2, at that array beside it, where a full solve
    # or potential holds two fields (test_ownership.py)
    g = build_grid(n)
    e1 = first_eigenpair(g)[0]
    budget = 1.0 + ((n // 2) / (n - 1)) ** 3 + 1.0 / 64
    assert _peak_in_fields(g, solve_dirichlet_poisson, e1) <= budget
    assert _peak_in_fields(g, compute_phi, e1, ScalarField.constant(g, 1.0)) <= budget


def test_dst1_rejects_an_output_it_cannot_write_through():
    # the last product writes through out.reshape, which for a Fortran-ordered
    # out is a copy: the result would be lost, so it is a ValueError
    g = build_grid(8)
    sines = g.sine_factors(False)[0]
    with pytest.raises(ValueError, match="C-ordered"):
        _dst1(np.ones(g.shape), sines, np.empty(g.shape, order="F"), np.empty(g.shape))


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


def _quad(t):
    return t * (1.0 - t)


def _manufactured_error(n: int, star, neg_laplacian) -> float:
    """Relative L2 error of the solve of -Delta_h w = -Delta u* against u*,
    both sampled on the interior nodes of grid n."""
    g = build_grid(n)
    star_h = sample_function(g, star)
    w = solve_dirichlet_poisson(sample_function(g, neg_laplacian)).field
    return lp_norm(w - star_h, 2) / lp_norm(star_h, 2)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_manufactured_quadratic_product_is_solved_exactly(n):
    # u* = x(1-x) y(1-y) z(1-z) lies off the sine basis, in every mode of odd
    # index; the 7-point stencil is exact on a quadratic in each variable, so
    # the discrete solution is u* up to rounding
    err = _manufactured_error(
        n,
        lambda x, y, z: _quad(x) * _quad(y) * _quad(z),
        lambda x, y, z: 2.0 * (_quad(y) * _quad(z) + _quad(x) * _quad(z) + _quad(x) * _quad(y)),
    )
    assert err <= 1e-14


def test_manufactured_quartic_converges_at_second_order():
    # u* = [x(1-x)]^2 y(1-y) z(1-z): on the quartic factor the stencil's
    # error is (h^2 / 12) times its fourth derivative 24, so 2 h^2, and the
    # observed order is 2
    def neg_laplacian(x, y, z):
        d2 = 2.0 * ((1.0 - 2.0 * x) ** 2 - 2.0 * _quad(x))  # second derivative of x^2 (1-x)^2
        return -d2 * _quad(y) * _quad(z) + 2.0 * _quad(x) ** 2 * (_quad(y) + _quad(z))

    errs = [_manufactured_error(n, lambda x, y, z: _quad(x) ** 2 * _quad(y) * _quad(z),
                                neg_laplacian) for n in (8, 16, 32)]
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) == pytest.approx(2.0, abs=0.1)


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
