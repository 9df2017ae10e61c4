"""Uniform cube grid, interior scalar fields, and the discrete operators on them.

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

from .errors import GridMismatchError, InvalidExponentError, InvalidGridError

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
    def dim(self) -> int:
        return 3

    @property
    def shape(self) -> tuple[int, int, int]:
        m = self.n - 1
        return (m, m, m)

    @property
    def interior_count(self) -> int:
        return (self.n - 1) ** 3

    def interior_coordinates(self) -> np.ndarray:
        # i/n rather than i*h: the right endpoint would land on 1.0 exactly
        # for every n, not only powers of two.
        return np.arange(1, self.n) / self.n

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = self.interior_coordinates()
        return np.meshgrid(c, c, c, indexing="ij")

    @cached_property
    def sine_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, inv): the factors of the stencil's diagonalization, built on
        first use and kept, read-only, for the grid's lifetime.

        S is the DST-I matrix S[j, k] = sin(pi j k / n), j, k = 1..n-1, and
        inv the cube (2/n)^3 / lambda of the inverse eigenvalues
        lambda = (4/h^2) sum_i sin^2(pi k_i / (2n)), with the (2/n)^3 of the
        two unnormalized transforms folded in.
        """
        n, h = self.n, self.h
        sines = _sine_matrix(n)
        s = np.sin(0.5 * np.pi * np.arange(1, n) / n) ** 2
        eig = (4.0 / (h * h)) * (s[:, None, None] + s[None, :, None] + s[None, None, :])
        inv = (2.0 / n) ** 3 / eig
        sines.setflags(write=False)
        inv.setflags(write=False)
        return sines, inv


def _sine_matrix(n: int) -> np.ndarray:
    """DST-I matrix S[j, k] = sin(pi j k / n), j, k = 1..n-1; S @ S = (n/2) I."""
    k = np.arange(1, n)
    return np.sin(np.pi * np.outer(k, k) / n)


def build_grid(n: int) -> DomainGrid:
    """Validated constructor for DomainGrid (n >= 3)."""
    return DomainGrid(n)


def _sealed(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """vals made read-only once its shape matches the grid and every value is
    finite; an overflow anywhere upstream surfaces here as a ValueError."""
    if vals.shape != grid.shape:
        raise InvalidGridError(f"values shape {vals.shape} does not match grid shape {grid.shape}")
    if not np.isfinite(vals).all():
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

    @classmethod
    def zeros(cls, grid: DomainGrid) -> "ScalarField":
        return cls._own(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: DomainGrid, fn) -> "ScalarField":
        """Sample fn(x, y, z) on the interior nodes."""
        x, y, z = grid.meshgrid()
        return cls(grid, fn(x, y, z))

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


def _power_sum(values: np.ndarray, m: float) -> float:
    """sum |v_i|^m of an array."""
    # the ball and residual norms use m = 2 and m = 3: BLAS sums with no pow
    # and no |v| array, since v_i v_i = |v_i|^2 and copysign(v_i^2, v_i) v_i
    # = v_i^2 |v_i|, each product exactly the one of |v|
    if m == 2.0:
        return float(np.vdot(values, values))
    if m == 3.0:
        sq = np.multiply(values, values)
        return float(np.vdot(np.copysign(sq, values, out=sq), values))
    return float(np.sum(np.abs(values) ** m))


def lp_norm(u: ScalarField, m: float) -> float:
    """Discrete Lp norm: (sum |u_i|^m h^3)^(1/m).

    A field so small or so large that the sum underflows below the normal
    range or overflows is summed again divided by max|u|, so the norm does
    not depend on the scale of the field; every other field takes the one
    direct sum.
    """
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise InvalidExponentError(f"norm exponent must satisfy m >= 1, got {m}")
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


def l2_inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete L2 pairing sum(u v) h^3."""
    u._check_same_grid(v)
    return float(np.sum(u.values * v.values)) * u.grid.h ** 3


def h1_inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete gradient pairing over all cell faces, zero boundary included.

    Forward differences on the zero-padded cube; equals <apply_laplacian(u), v> h^3
    exactly (summation by parts). The padding is never built: the interior
    faces are the differences of the unpadded arrays, and the two boundary
    faces per axis carry the first and last slabs themselves.
    """
    u._check_same_grid(v)
    a, b = u.values, v.values
    total = 0.0
    for axis in range(3):
        da = np.diff(a, axis=axis)
        db = da if b is a else np.diff(b, axis=axis)
        total += float(np.vdot(da, db))
        for end in (0, -1):
            total += float(np.vdot(a.take(end, axis), b.take(end, axis)))
    # (d/h)*(d/h) summed over faces, times the h^3 cell volume
    return total * u.grid.h


def grad_l2_norm(u: ScalarField) -> float:
    """Discrete H1 seminorm (L2 norm of the forward-difference gradient)."""
    return math.sqrt(max(h1_inner(u, u), 0.0))


def neg_laplacian_array(values: np.ndarray, h: float) -> np.ndarray:
    """-Laplacian of a raw interior array under zero Dirichlet padding.

    Allocates only the output: each axis subtracts its two shifted
    neighbours in place, and a neighbour outside the interior is zero.
    """
    out = 6.0 * values
    out[1:] -= values[:-1]
    out[:-1] -= values[1:]
    out[:, 1:] -= values[:, :-1]
    out[:, :-1] -= values[:, 1:]
    out[:, :, 1:] -= values[:, :, :-1]
    out[:, :, :-1] -= values[:, :, 1:]
    out /= h * h
    return out


def apply_laplacian(u: ScalarField) -> ScalarField:
    """Negative 7-point Laplacian, -Delta_h u, with zero Dirichlet boundary."""
    return ScalarField._own(u.grid, neg_laplacian_array(u.values, u.grid.h))


def w2n_norm(u: ScalarField) -> float:
    """Constraint-ball norm: L3 norm of -Delta_h u.

    On the zero-boundary cube this is an equivalent second-order Sobolev
    (W^{2,3}) norm; N = 3 is the space dimension and is fixed.
    """
    return lp_norm(apply_laplacian(u), 3.0)


def first_eigenpair(grid: DomainGrid) -> tuple[ScalarField, float]:
    """First discrete Dirichlet eigenfunction and its eigenvalue.

    e1(i,j,k) = sin(pi i h) sin(pi j h) sin(pi k h), with
    -Delta_h e1 = lambda_h e1 and lambda_h = 12 sin^2(pi h / 2) / h^2.
    """
    c = grid.interior_coordinates()
    s = np.sin(np.pi * c)
    e1 = s[:, None, None] * s[None, :, None] * s[None, None, :]
    lam = 12.0 * math.sin(0.5 * math.pi * grid.h) ** 2 / grid.h**2
    return ScalarField._own(grid, e1), lam
