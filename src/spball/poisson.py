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


def _dst1(values: np.ndarray, sines: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I, sum_j a_j sin(pi j k / n), along every axis of a cube.

    One product with the symmetric sine matrix per axis; applying it twice
    multiplies by n/2 per axis.
    """
    out = sines @ (values @ sines)
    return (sines @ out.reshape(len(sines), -1)).reshape(out.shape)


def solve_dirichlet_poisson(f: ScalarField) -> PoissonSolution:
    """Solve -Delta_h w = f with zero Dirichlet boundary by sine transforms.

    Two transforms and one product with the grid's scaled inverse
    eigenvalues (DomainGrid.sine_factors). A zero right-hand side returns the
    zero field.
    """
    grid = f.grid
    b = f.values
    if not np.any(b):
        return PoissonSolution(ScalarField.zeros(grid), 0)

    sines, inv_eig = grid.sine_factors
    coeffs = _dst1(b, sines)
    coeffs *= inv_eig
    return PoissonSolution(ScalarField(grid, _dst1(coeffs, sines)), 1)


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
    rhs = ScalarField(u.grid, coupling.values * u.values**2)
    return solve_dirichlet_poisson(rhs).field
