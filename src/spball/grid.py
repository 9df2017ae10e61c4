"""Uniform cube grid, interior scalar fields, the discrete Lp norm, the
7-point Laplacian and its first eigenpair, and the one sine table that the
eigenpair and the Laplacian's diagonalization read.

The domain is the open unit cube with zero Dirichlet data. Only interior
nodes are stored; boundary values are identically zero and enter the
operators implicitly through zero padding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvalidGridError

_TINY = sys.float_info.min  # smallest normal float


@dataclass(frozen=True)
class DomainGrid:
    """Uniform tensor grid with n subdivisions per axis (spacing h = 1/n)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise InvalidGridError(f"subdivision count must be an integer, got {self.n!r}")
        if self.n < 3:
            raise InvalidGridError(
                f"need at least 3 subdivisions per axis for a nonempty stencil, got n={self.n}"
            )
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        m = self.n - 1
        return (m, m, m)

    @cached_property
    def sine_table(self) -> np.ndarray:
        """T[i] = sin(pi i / (2n)) for i = 0..4n-1, one period of the sine at
        the multiples of pi / (2n), built on first use and kept, read-only,
        for the grid's lifetime.

        Every spectral quantity of the grid is an entry of it: the DST-I entry
        sin(pi j k / n) is T[2jk mod 4n], the eigenvalue axis (eigen_axis) is
        T[k]^2 and e1's axis factor (e1_axis) is T[2i]. Reducing the integer
        2jk by the period is exact, so no sine is taken of an angle beyond
        2 pi. Only the quarter wave T[0..n] is taken, by n + 1 math.sin
        calls; the rest follows exactly by T[2n - i] = T[i] and
        T[2n + i] = -T[i], so T[2n] is 0 and every mirror identity of the
        sine holds bit for bit: e1 equals its reflection about each
        midplane, and S[n - j, k] = S[j, k] for every odd k, which the
        Poisson solve's fold reads. A run calls no numpy sine. Only the
        grid's own members index it.
        """
        n = self.n
        quarter = [math.sin(math.pi * i / (2 * n)) for i in range(n + 1)]
        half = quarter + quarter[-2::-1]  # T[0..2n]
        table = np.array(half + [-t for t in half[1:-1]])
        table.setflags(write=False)
        return table

    @cached_property
    def eigen_axis(self) -> np.ndarray:
        """sigma_k = T[k]^2 = sin^2(pi k / (2n)), k = 1..n-1, read-only: the
        stencil's eigenvalues are (4/h^2)(sigma_i + sigma_j + sigma_k)."""
        axis = self.sine_table[1 : self.n] ** 2
        axis.setflags(write=False)
        return axis

    @cached_property
    def e1_axis(self) -> np.ndarray:
        """s_i = T[2i] = sin(pi i / n), i = 1..n-1, e1's axis factor: a view
        of the read-only table."""
        return self.sine_table[2 : 2 * self.n : 2]

    @property
    def first_eigenvalue(self) -> float:
        """lambda_h = 12 sigma_1 / h^2, the stencil's smallest eigenvalue, e1's."""
        return 12.0 * float(self.eigen_axis[0]) / self.h**2

    def sine_factors(self, even: bool) -> tuple:
        """(forward, inverse, P, Q): the factors of the stencil's
        diagonalization on the full cube, or, when even, on the sector of a
        mirror-even cube, the first n // 2 nodes per axis. Each set is
        built on first use and kept, read-only, for the grid's lifetime;
        none has (n-1)^3 entries, and a run whose every solve folds builds
        only the sector's.

        forward and inverse are each a transform's matrix beside its
        transpose, as the Poisson solve's _dst1 takes them. On the full
        cube both are the DST-I matrix S[j, k] = sin(pi j k / n) =
        T[2jk mod 4n], j, k = 1..n-1, with T the grid's sine_table. S is
        symmetric, and taken from the table S @ S = (n/2) I holds to
        1-2.5 ulp of n/2 for every n up to 256. A mirror-even cube holds
        only the odd modes k, for which S[n - j, k] = S[j, k] bit for bit,
        so the sector's set folds S: its forward matrix is w_j S[j, k] over
        the sector's nodes j and the odd k, where w_j = 2 counts a node and
        its mirror image and the centre node of an even n has w_j = 1, and
        its inverse matrix is S[k, j].

        P, a^2 x 2 for the a modes of a set, holds the pair sums
        sigma_i + sigma_j of their eigen_axis entries beside a column of
        ones, and Q, 2 x a, a row of ones above those entries: the product
        P @ Q is the eigenvalue sum (sigma_i + sigma_j) + sigma_k, each of
        its two products being exact, which inverse_eigenvalues forms into
        a caller's cube. The odd modes' sums are the full set's at odd k,
        bit for bit.
        """
        return self._sector_factors if even else self._full_factors

    @cached_property
    def _full_factors(self) -> tuple:
        k = np.arange(1, self.n)
        sines = self._sines(k, k)
        return _sealed_factors((sines, sines), (sines, sines), self.eigen_axis)

    @cached_property
    def _sector_factors(self) -> tuple:
        n = self.n
        folded = self._sines(np.arange(1, n // 2 + 1), np.arange(1, n, 2))
        weights = np.full((n // 2, 1), 2.0)
        if n % 2 == 0:
            weights[-1] = 1.0  # the centre node is its own mirror image
        forward = folded * weights
        return _sealed_factors((forward, forward.T.copy()), (folded.T.copy(), folded),
                               self.eigen_axis[::2])

    def _sines(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """S[j, k] = sin(pi j k / n) = T[2jk mod 4n] for the nodes j and modes k."""
        return self.sine_table[(2 * np.outer(j, k)) % (4 * self.n)]

    def inverse_eigenvalues(self, out: np.ndarray) -> np.ndarray:
        """The scaled inverse eigenvalues (2/n)^3 / lambda, written into the
        C-ordered cube out, which is returned: lambda = (4/h^2) sum_i
        sigma_{k_i} over the eigen_axis, with the (2/n)^3 of the two
        unnormalized transforms folded in. A cube of (n-1)^3 entries takes
        every mode, and a cube of (n // 2)^3, the mirror-even sector, the
        odd modes alone.

        The sum is one product of the matching sine_factors' P and Q into
        out, scaled and inverted in place: the formation allocates nothing,
        and the grid keeps no cube of them. An out that is not
        C-ordered is a ValueError: the product would fill a reshaped copy of
        it, not out itself.
        """
        if not out.flags.c_contiguous:
            raise ValueError("inverse_eigenvalues needs a C-ordered output array")
        _, _, pairs, axis = self.sine_factors(len(out) < self.n - 1)
        a = axis.shape[1]
        np.matmul(pairs, axis, out=out.reshape(a * a, a))
        out *= 4.0 / (self.h * self.h)
        np.divide((2.0 / self.n) ** 3, out, out=out)
        return out


def _sealed_factors(forward, inverse, sigma: np.ndarray) -> tuple:
    """(forward, inverse, P, Q) with P = [sigma_i + sigma_j, 1] and
    Q = [1; sigma_k] over the entries of sigma, every array read-only."""
    pairs = np.ones((len(sigma) ** 2, 2))
    pairs[:, 0] = (sigma[:, None] + sigma[None, :]).reshape(-1)
    axis = np.ones((2, len(sigma)))
    axis[1] = sigma
    for factor in (*forward, *inverse, pairs, axis):
        factor.setflags(write=False)
    return forward, inverse, pairs, axis


def build_grid(n: int) -> DomainGrid:
    """Validated constructor for DomainGrid (n >= 3)."""
    return DomainGrid(n)


def _sealed(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """vals made read-only once its shape matches the grid and every value is
    finite; an overflow anywhere upstream surfaces here as a ValueError.

    The scan is a minimum and a maximum over unbroadcast(vals), which a NaN
    or an infinity reaches, so it forms no mask and reduces a constant
    field's one number."""
    if vals.shape != grid.shape:
        raise InvalidGridError(f"values shape {vals.shape} does not match grid shape {grid.shape}")
    distinct = unbroadcast(vals)
    if not (math.isfinite(distinct.min()) and math.isfinite(distinct.max())):
        raise ValueError("field values must be finite")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values on the interior nodes of a DomainGrid.

    Values are stored as a read-only float array of shape (n-1,)*3 and are
    required to be finite. Arithmetic between fields checks grid identity.
    The constructor copies its input once, into C order; the kernels hand
    their fresh output arrays to _own, which keeps both checks and skips the
    copy.
    """

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, order="C")
        object.__setattr__(self, "values", _sealed(self.grid, vals))

    @classmethod
    def _own(cls, grid: DomainGrid, values: np.ndarray) -> "ScalarField":
        """Adopt a float array a kernel has just made and nobody else holds:
        the shape check, the finiteness scan and the read-only flag, no copy."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", _sealed(grid, values))
        return field

    def _release(self) -> np.ndarray:
        """The values, writable again, for a caller that made this field and
        alone holds it, so that its next result can go into the same buffer;
        the field must not be read once that result is written."""
        self.values.setflags(write=True)
        return self.values

    @classmethod
    def zeros(cls, grid: DomainGrid) -> "ScalarField":
        return cls._own(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: DomainGrid, value: float) -> "ScalarField":
        """The field equal to value at every node, as a read-only zero-stride
        view of one number: no field-sized array. Its values suit elementwise
        products and reductions; a BLAS dot product would copy them out."""
        return cls._own(grid, np.broadcast_to(np.float64(value), grid.shape))

    def _check_same_grid(self, other: "ScalarField") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"fields live on different grids (n={self.grid.n} vs n={other.grid.n})"
            )

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField._own(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField._own(self.grid, self.values - other.values)

    def __neg__(self) -> "ScalarField":
        return ScalarField._own(self.grid, -self.values)

    def __mul__(self, other):
        # scalar scaling or nodewise product of two fields on one grid
        if isinstance(other, ScalarField):
            self._check_same_grid(other)
            return ScalarField._own(self.grid, self.values * other.values)
        return ScalarField._own(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ScalarField":
        return ScalarField._own(self.grid, self.values / float(scalar))


def unbroadcast(values: np.ndarray) -> np.ndarray:
    """values with every zero-stride axis cut to length 1: a view of the same
    set of numbers, so a min or max over it is the one over values. A
    constant field's view reduces over one number, not (n-1)^3 repeats of
    it."""
    return values[tuple(slice(None, 1) if s == 0 else slice(None) for s in values.strides)]


def _power_sum(values: np.ndarray, m: float) -> float:
    """sum |v_i|^m of an array, for m = 2 or 3."""
    # BLAS sums with no pow and no |v| array, since v_i v_i = |v_i|^2 and
    # (|v_i| v_i) v_i = v_i^2 |v_i|, each product exactly the one of |v|
    if m == 2.0:
        return float(np.vdot(values, values))
    signed_sq = np.abs(values)
    signed_sq *= values
    return float(np.vdot(signed_sq, values))


def lp_norm(u: ScalarField, m: float) -> float:
    """Discrete Lp norm: (sum |u_i|^m h^3)^(1/m), for m = 2 or 3, the two
    exponents a run takes; any other m is a ValueError.

    A field so small or so large that the sum underflows below the normal
    range or overflows is summed again divided by max|u|, so the norm does
    not depend on the scale of the field; every other field takes the one
    direct sum.
    """
    if m not in (2, 3):
        raise ValueError(f"lp_norm takes the exponent 2 or 3, got {m!r}")
    h3 = u.grid.h ** 3
    with np.errstate(over="ignore"):
        total = _power_sum(u.values, m) * h3
    if _TINY <= total < math.inf:
        return total ** (1.0 / m)
    a = np.abs(u.values)
    top = float(a.max())
    if top == 0.0:
        return 0.0
    a /= top
    return top * (_power_sum(a, m) * h3) ** (1.0 / m)


def neg_laplacian_array(values: np.ndarray, h: float) -> np.ndarray:
    """-Laplacian of a raw interior array under zero Dirichlet padding.

    Allocates only the output and a saved face or two, (n-1)^2 values each.
    Over the flat C-ordered arrays a neighbour along an axis is a contiguous
    shift by that axis's stride, so the six subtractions run as flat passes
    in the stencil's order. A shift by a row or by one also pairs the
    entries on a face, whose neighbour there is the zero boundary, with an
    entry of the next row or plane; they are saved before the pass and
    written back after it, never corrected by adding that entry back, so
    every entry takes the operations of six strided subtractions and the
    result is theirs bit for bit.
    """
    values = np.ascontiguousarray(values)
    out = 6.0 * values
    flat, v = out.reshape(-1), values.reshape(-1)
    plane = values.shape[1] * values.shape[2]
    flat[plane:] -= v[:-plane]
    flat[:-plane] -= v[plane:]
    for shift, low_face, high_face in (
        (values.shape[2], out[1:, 0, :], out[:-1, -1, :]),
        (1, out[:, :, 0], out[:, :, -1]),
    ):
        kept = low_face.copy()
        flat[shift:] -= v[:-shift]
        low_face[...] = kept
        kept = high_face.copy()
        flat[:-shift] -= v[shift:]
        high_face[...] = kept
    out /= h * h
    return out


def apply_laplacian(u: ScalarField) -> ScalarField:
    """Negative 7-point Laplacian, -Delta_h u, with zero Dirichlet boundary."""
    return ScalarField._own(u.grid, neg_laplacian_array(u.values, u.grid.h))


def first_eigenpair(grid: DomainGrid) -> tuple[ScalarField, float]:
    """First discrete Dirichlet eigenfunction and its eigenvalue.

    e1(i,j,k) = s_i s_j s_k with s = grid.e1_axis, the sine matrix's first
    column (k = 1) bit for bit, and -Delta_h e1 = lambda_h e1 with lambda_h =
    grid.first_eigenvalue.
    """
    s = grid.e1_axis
    e1 = s[:, None, None] * s[None, :, None] * s[None, None, :]
    return ScalarField._own(grid, e1), grid.first_eigenvalue
