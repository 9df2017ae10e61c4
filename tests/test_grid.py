"""Grid, field, norm, and discrete-operator tests.

Oracles: math.fsum direct summation for norms, the dense Kronecker
Laplacian for operator identities, and the closed-form discrete
eigenpair of the 7-point stencil. The gradient pairing and ball norm
checked here are conftest's, the oracles the other test modules use.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spball import (
    GridMismatchError,
    InvalidGridError,
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from spball.grid import neg_laplacian_array, unbroadcast

from conftest import (
    dense_neg_laplacian,
    grad_l2_norm,
    h1_inner,
    l2_inner,
    random_field,
    sample_function,
    w2n_norm,
)


# ---------------------------------------------------------------- grid


def test_build_grid_basic():
    g = build_grid(4)
    assert g.h == 0.25
    assert g.shape == (3, 3, 3)


def test_build_grid_minimum_resolution():
    g = build_grid(3)
    assert g.shape == (2, 2, 2)


@pytest.mark.parametrize("n", [2, 1, 0, -3])
def test_build_grid_rejects_too_coarse(n):
    with pytest.raises(InvalidGridError):
        build_grid(n)


def test_build_grid_rejects_non_integer():
    with pytest.raises(InvalidGridError):
        build_grid(4.5)


@pytest.mark.parametrize("n", [3, 4, 8, 32, 64, 128])
def test_spectral_members_equal_their_table_formulas(n):
    # the eigenvalue axis, the inverse eigenvalue cube, lambda_h and e1, each
    # bit for bit against its expression over the sine table T
    g = build_grid(n)
    T, h = g.sine_table, g.h
    sigma = T[1:n] ** 2
    assert np.array_equal(g.eigen_axis, sigma)
    inv = sigma[:, None, None] + sigma[None, :, None] + sigma[None, None, :]
    inv *= 4.0 / (h * h)
    np.divide((2.0 / n) ** 3, inv, out=inv)
    assert np.array_equal(g.sine_factors[1], inv)
    lam = 12.0 * float(T[1]) ** 2 / h**2
    s = T[2 : 2 * n : 2]
    e1, got_lam = first_eigenpair(g)
    assert got_lam == g.first_eigenvalue == lam
    assert np.array_equal(e1.values, s[:, None, None] * s[None, :, None] * s[None, None, :])
    # both axes are built once and read-only
    for name in ("eigen_axis", "e1_axis"):
        axis = getattr(g, name)
        assert axis is getattr(g, name) and not axis.flags.writeable


# ---------------------------------------------------------------- fields


def test_field_shape_checked():
    g = build_grid(4)
    with pytest.raises(InvalidGridError):
        ScalarField(g, np.zeros((2, 3, 3)))


def test_field_rejects_non_finite():
    g = build_grid(4)
    vals = np.zeros(g.shape)
    vals[1, 1, 1] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, vals)
    vals[1, 1, 1] = np.inf
    with pytest.raises(ValueError):
        ScalarField(g, vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finiteness_scan_finds_a_non_finite_value_anywhere(bad):
    # the scan is a minimum and a maximum, not a mask: a NaN or an infinity
    # of either sign at the first, a middle or the last flat index is
    # refused by the constructor and by a kernel's _own alike, and so is a
    # constant field of it
    g = build_grid(6)
    size = math.prod(g.shape)
    for index in (0, size // 2, size - 1):
        vals = np.zeros(g.shape)
        vals.reshape(-1)[index] = bad
        with pytest.raises(ValueError, match="finite"):
            ScalarField(g, vals)
        with pytest.raises(ValueError, match="finite"):
            ScalarField._own(g, vals)
    with pytest.raises(ValueError, match="finite"):
        ScalarField.constant(g, bad)
    assert ScalarField.constant(g, -1e308).values.min() == -1e308


def test_field_constructor_copies_its_source():
    # a list, an int array and a float array: the field keeps its own copy
    g = build_grid(4)
    ints = np.arange(27).reshape(g.shape)
    floats = ints.astype(float)
    listed = floats.tolist()
    fields = [ScalarField(g, src) for src in (ints, floats, listed)]
    ints[0, 0, 0] = 99
    floats[0, 0, 0] = 99.0
    listed[0][0][0] = 99.0
    for u in fields:
        assert u.values.dtype == np.float64
        assert u.values[0, 0, 0] == 0.0
        assert np.array_equal(u.values.ravel(), np.arange(27.0))
        assert not u.values.flags.writeable


def test_field_values_read_only():
    g = build_grid(4)
    u = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 1.0


def test_field_arithmetic_and_grid_mismatch():
    g = build_grid(4)
    other = build_grid(5)
    u = ScalarField(g, np.full(g.shape, 2.0))
    v = ScalarField(g, np.full(g.shape, 3.0))
    assert_allclose((u + v).values, 5.0)
    assert_allclose((u - v).values, -1.0)
    assert_allclose((u * v).values, 6.0)
    assert_allclose((2.0 * u).values, 4.0)
    assert_allclose((-u).values, -2.0)
    assert_allclose((u / 4.0).values, 0.5)
    w = ScalarField.zeros(other)
    for op in (lambda: u + w, lambda: u - w, lambda: u * w, lambda: l2_inner(u, w)):
        with pytest.raises(GridMismatchError):
            op()


# ---------------------------------------------------------------- lp_norm


def test_lp_norm_constant_field_frozen_value():
    # n=4: 27 interior nodes, h^3 = 1/64; ||1||_2 = sqrt(27/64)
    g = build_grid(4)
    u = ScalarField(g, np.ones(g.shape))
    assert_allclose(lp_norm(u, 2), math.sqrt(27.0 / 64.0), rtol=1e-15)


def test_lp_norm_zero_field():
    g = build_grid(5)
    assert lp_norm(ScalarField.zeros(g), 3) == 0.0


@pytest.mark.parametrize("m", [2.0, 3.0])
@pytest.mark.parametrize("value", [1e-200, 1e-120, 1e120, 1e200])
def test_lp_norm_does_not_depend_on_the_scale_of_the_field(value, m):
    # ||c||_m = c ((n-1)^3 h^3)^(1/m) for a constant c; c^m leaves the float
    # range here, so the direct sum alone would read 0 or inf
    g = build_grid(6)
    expected = value * (125.0 / 216.0) ** (1.0 / m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm(ScalarField(g, np.full(g.shape, -value)), m)
    assert_allclose(got, expected, rtol=1e-14)


def test_lp_norm_against_fsum_oracle(rng):
    # m = 2 and m = 3 sum with dot products
    for n in (5, 7):
        g = build_grid(n)
        u = random_field(g, rng)
        for m in (2.0, 3.0):
            direct = math.fsum(abs(float(x)) ** m for x in u.values.ravel()) * g.h**3
            assert_allclose(lp_norm(u, m), direct ** (1.0 / m), rtol=1e-13)


def test_lp_norm_dot_sums_match_the_sums_of_abs_u_bit_for_bit(rng):
    # m = 2 sums u*u and m = 3 sums copysign(u*u, u)*u: the same products as
    # |u|*|u| and (|u|*|u|)*|u|, in the same order, signed zeros and
    # subnormals included
    g = build_grid(9)
    values = rng.standard_normal(g.shape)
    values.flat[::3] = -0.0
    values.flat[1::5] = -1e-300
    values.flat[2::7] = 5e-310
    for scale in (1.0, -3e-5, 7e40):
        a = np.abs(scale * values)
        u = ScalarField(g, scale * values)
        assert lp_norm(u, 2) == (float(np.vdot(a, a)) * g.h**3) ** 0.5
        assert lp_norm(u, 3) == (float(np.vdot(a * a, a)) * g.h**3) ** (1.0 / 3.0)


@pytest.mark.parametrize("m", [0.99, 0.0, -1.0, math.nan, 1.0, 2.5, 4.5, math.inf])
def test_lp_norm_rejects_bad_exponent(m):
    # a run takes the ball and residual norms, m = 3, and L2 norms, m = 2
    g = build_grid(3)
    with pytest.raises(ValueError, match="exponent 2 or 3"):
        lp_norm(ScalarField.zeros(g), m)


# scales below ~1e-100 underflow nodewise powers; homogeneity is only
# claimed over a sane dynamic range
@settings(max_examples=25, deadline=None)
@given(
    t=st.one_of(
        st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)
    ),
    seed=st.integers(0, 2**16),
    m=st.sampled_from([2.0, 3.0]),
)
def test_lp_norm_absolute_homogeneity(t, seed, m):
    g = build_grid(4)
    u = random_field(g, np.random.default_rng(seed))
    assert_allclose(lp_norm(t * u, m), abs(t) * lp_norm(u, m), rtol=1e-12, atol=1e-300)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.sampled_from([2.0, 3.0]))
def test_lp_norm_triangle_inequality(seed, m):
    g = build_grid(4)
    r = np.random.default_rng(seed)
    u, v = random_field(g, r), random_field(g, r)
    assert lp_norm(u + v, m) <= lp_norm(u, m) + lp_norm(v, m) + 1e-12


# ---------------------------------------------------------------- gradient norm


def test_grad_l2_norm_zero_field():
    g = build_grid(6)
    assert grad_l2_norm(ScalarField.zeros(g)) == 0.0


def test_grad_l2_norm_matches_summation_by_parts(rng):
    # ||grad u||^2 == <-Delta_h u, u> h^3 exactly for zero-boundary fields
    g = build_grid(5)
    for _ in range(5):
        u = random_field(g, rng)
        quad = l2_inner(apply_laplacian(u), u)
        assert_allclose(grad_l2_norm(u) ** 2, quad, rtol=1e-12)


def test_grad_l2_norm_eigenfunction_value():
    # for the L2-normalized eigenfunction, ||grad e||^2 = lambda_h
    g = build_grid(8)
    e1, lam = first_eigenpair(g)
    e1 = e1 / lp_norm(e1, 2)
    assert_allclose(grad_l2_norm(e1) ** 2, lam, rtol=1e-12)


def _padded_h1_inner(u, v):
    # forward differences over every face of the zero-padded cube
    wu, wv = np.pad(u.values, 1), np.pad(v.values, 1)
    faces = (np.diff(wu, axis=a).ravel() * np.diff(wv, axis=a).ravel() for a in range(3))
    return math.fsum(float(x) for f in faces for x in f) * u.grid.h


@pytest.mark.parametrize("n", [4, 5, 7])
def test_h1_inner_matches_zero_padded_oracle(rng, n):
    g = build_grid(n)
    u, v = random_field(g, rng), random_field(g, rng)
    assert_allclose(h1_inner(u, u), _padded_h1_inner(u, u), rtol=1e-13)
    assert_allclose(h1_inner(u, v), _padded_h1_inner(u, v), rtol=1e-13)


def test_h1_inner_symmetry_and_bilinearity(rng):
    g = build_grid(4)
    u, v, w = (random_field(g, rng) for _ in range(3))
    assert_allclose(h1_inner(u, v), h1_inner(v, u), rtol=1e-12)
    assert_allclose(
        h1_inner(u + 2.0 * w, v),
        h1_inner(u, v) + 2.0 * h1_inner(w, v),
        rtol=1e-11,
    )


# ---------------------------------------------------------------- laplacian


def test_apply_laplacian_eigenfunction_identity():
    # -Delta_h e1 = lambda_h e1 with lambda_h = 12 sin^2(pi h/2)/h^2
    for n in (4, 8, 16):
        g = build_grid(n)
        e1, lam = first_eigenpair(g)
        lap = apply_laplacian(e1)
        err = lp_norm(lap - lam * e1, 2) / lp_norm(lam * e1, 2)
        assert err <= 1e-13


def test_apply_laplacian_matches_dense_oracle(rng):
    for n in (4, 5, 7):
        g = build_grid(n)
        a = dense_neg_laplacian(n)
        for _ in range(3):
            u = random_field(g, rng)
            expected = (a @ u.values.ravel()).reshape(g.shape)
            assert_allclose(apply_laplacian(u).values, expected, rtol=1e-12, atol=1e-12)


def test_fields_from_any_memory_layout_agree(rng):
    # the stored values are C-ordered whatever the source's layout, and the
    # Laplacian, norms and products read the same numbers
    g = build_grid(6)
    a = rng.standard_normal(g.shape)
    ref = ScalarField(g, a)
    sources = (np.asfortranarray(a), a.T.copy().T, a[::-1].copy()[::-1])
    fields = [ScalarField(g, src) for src in sources]
    fields.append(sample_function(g, lambda x, y, z: np.asfortranarray(a)))
    for u in fields:
        assert u.values.flags.c_contiguous
        assert np.array_equal(u.values, ref.values)
        assert np.array_equal(apply_laplacian(u).values, apply_laplacian(ref).values)
        assert w2n_norm(u) == w2n_norm(ref)
        assert h1_inner(u, u) == h1_inner(ref, ref)


def test_neg_laplacian_array_leaves_its_input_unchanged(rng):
    values = rng.standard_normal((6, 6, 6))
    before = values.copy()
    out = neg_laplacian_array(values, 1.0 / 7)
    assert np.array_equal(values, before)
    assert not np.shares_memory(out, values)


def _strided_neg_laplacian(values, h):
    """The stencil as six strided in-place subtractions, one per neighbour,
    in the order the flat kernel takes them: the oracle it must match bit
    for bit."""
    out = 6.0 * values
    out[1:] -= values[:-1]
    out[:-1] -= values[1:]
    out[:, 1:] -= values[:, :-1]
    out[:, :-1] -= values[:, 1:]
    out[:, :, 1:] -= values[:, :, :-1]
    out[:, :, :-1] -= values[:, :, 1:]
    out /= h * h
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 16, 33])
def test_neg_laplacian_array_does_not_depend_on_memory_layout(rng, n):
    # the flat passes give the strided subtractions bit for bit, and the
    # same values held Fortran-ordered, with permuted strides, with reversed
    # strides or read-only give that result too
    values = rng.standard_normal((n - 1,) * 3)
    expected = _strided_neg_laplacian(values, 1.0 / n)
    assert np.array_equal(neg_laplacian_array(values, 1.0 / n), expected)
    layouts = (
        np.asfortranarray(values),
        values.transpose(2, 0, 1).copy().transpose(1, 2, 0),
        values[::-1, :, ::-1].copy()[::-1, :, ::-1],
    )
    for same in layouts:
        assert not same.flags.c_contiguous
        assert np.array_equal(neg_laplacian_array(same, 1.0 / n), expected)
    read_only = values.copy()
    read_only.setflags(write=False)
    assert np.array_equal(neg_laplacian_array(read_only, 1.0 / n), expected)
    # a constant field's zero-stride view, through apply_laplacian
    g = build_grid(n)
    c = ScalarField.constant(g, -2.5)
    assert np.array_equal(apply_laplacian(c).values,
                          _strided_neg_laplacian(np.full(g.shape, -2.5), g.h))


def test_unbroadcast_cuts_zero_stride_axes_to_one_entry(rng):
    g = build_grid(8)
    c = ScalarField.constant(g, -1.5)
    assert unbroadcast(c.values).shape == (1, 1, 1)
    assert float(unbroadcast(c.values).min()) == float(c.values.min()) == -1.5
    # a stored field keeps every entry; a view broadcast along one axis
    # keeps that axis's one row
    u = random_field(g, rng)
    assert unbroadcast(u.values).shape == g.shape
    assert np.shares_memory(unbroadcast(u.values), u.values)
    row = np.broadcast_to(rng.standard_normal((7, 1, 7)), g.shape)
    assert unbroadcast(row).shape == (7, 1, 7)
    assert unbroadcast(row).min() == row.min() and unbroadcast(row).max() == row.max()


def test_apply_laplacian_self_adjoint(rng):
    g = build_grid(5)
    u, v = random_field(g, rng), random_field(g, rng)
    lhs = l2_inner(apply_laplacian(u), v)
    rhs = l2_inner(u, apply_laplacian(v))
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_apply_laplacian_positive_semidefinite(rng):
    g = build_grid(5)
    for _ in range(10):
        u = random_field(g, rng)
        assert l2_inner(apply_laplacian(u), u) >= 0.0


def test_apply_laplacian_constant_field_boundary_effect():
    # interior nodes away from the boundary see a zero Laplacian for u == 1;
    # nodes adjacent to the boundary see the missing neighbors
    g = build_grid(6)
    u = ScalarField(g, np.ones(g.shape))
    lap = apply_laplacian(u).values
    assert lap[2, 2, 2] == 0.0
    assert lap[0, 2, 2] == pytest.approx(1.0 / g.h**2)
    assert lap[0, 0, 0] == pytest.approx(3.0 / g.h**2)


# ---------------------------------------------------------------- w2n norm


def test_w2n_norm_zero_and_eigenfunction():
    g = build_grid(8)
    assert w2n_norm(ScalarField.zeros(g)) == 0.0
    e1, lam = first_eigenpair(g)
    assert_allclose(w2n_norm(e1), lam * lp_norm(e1, 3), rtol=1e-12)


def test_w2n_norm_homogeneity(rng):
    g = build_grid(4)
    u = random_field(g, rng)
    for t in (-2.5, 0.0, 1e-3, 17.0):
        assert_allclose(w2n_norm(t * u), abs(t) * w2n_norm(u), rtol=1e-12, atol=0)


def test_w2n_norm_against_fsum_oracle(rng):
    g = build_grid(5)
    u = random_field(g, rng)
    a = dense_neg_laplacian(5)
    lap = a @ u.values.ravel()
    direct = (math.fsum(abs(float(x)) ** 3 for x in lap) * g.h**3) ** (1.0 / 3.0)
    assert_allclose(w2n_norm(u), direct, rtol=1e-12)
