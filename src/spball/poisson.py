"""Direct Poisson solver for the 7-point Dirichlet stencil.

On the uniform cube the type-I discrete sine transform diagonalizes the
stencil exactly (fast diagonalization: Lynch, Rice & Thomas 1964; Buzbee,
Golub & Nielson 1970), so a solve is one forward transform, a product with
the scaled inverse eigenvalues and one inverse transform, exact up to
rounding. The sine matrix and that eigenvalue cube are the grid's
sine_factors, built once per DomainGrid. A transform is one product per
axis with the dense sine matrix: O(n^4) flops against an FFT's
O(n^3 log n), yet faster for every n <= 128 (see README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError
from .grid import ScalarField


@dataclass(frozen=True)
class PoissonSolution:
    """Solution field and solve count: 1 for a transform solve, 0 for a zero
    right-hand side."""

    field: ScalarField
    iterations: int


def _dst1(values: np.ndarray, sines: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I, sum_j a_j sin(pi j k / n), along every axis of a cube.

    One product with the symmetric sine matrix per axis, alternating between
    the caller's buffers out and work and ending in out, which is returned.
    Only the first product reads values, so values may be work itself.
    Applying the transform twice multiplies by n/2 per axis.
    """
    m = len(sines)
    np.matmul(values, sines, out=out)
    np.matmul(sines, out, out=work)
    np.matmul(sines, work.reshape(m, -1), out=out.reshape(m, -1))
    return out


def solve_dirichlet_poisson(f: ScalarField) -> PoissonSolution:
    """Solve -Delta_h w = f with zero Dirichlet boundary by sine transforms.

    Two transforms and one product with the grid's scaled inverse
    eigenvalues (DomainGrid.sine_factors), in two buffers; the solution field
    adopts the second. A zero right-hand side returns the zero field.
    """
    grid = f.grid
    if not f.values.any():
        return PoissonSolution(ScalarField.zeros(grid), 0)

    sines, inv_eig = grid.sine_factors
    first, second = np.empty(grid.shape), np.empty(grid.shape)
    coeffs = _dst1(f.values, sines, first, second)
    coeffs *= inv_eig
    return PoissonSolution(ScalarField._own(grid, _dst1(coeffs, sines, second, first)), 1)


def compute_phi(u: ScalarField, coupling: ScalarField) -> ScalarField:
    """Potential generated by u: solve -Delta_h phi = coupling * u^2.

    The coupling field must be nonnegative; that sign condition is what
    makes the potential nonnegative and the energy term well behaved.
    """
    if u.grid != coupling.grid:
        # reuse the field arithmetic check for a consistent error type
        u._check_same_grid(coupling)
    if float(coupling.values.min()) < 0.0:
        raise AssumptionViolationError("coupling field must be nonnegative")
    rhs = np.square(u.values)
    rhs *= coupling.values
    return solve_dirichlet_poisson(ScalarField._own(u.grid, rhs)).field
