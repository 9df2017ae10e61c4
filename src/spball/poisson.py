"""Direct Poisson solver for the 7-point Dirichlet stencil.

On the uniform cube the type-I discrete sine transform diagonalizes the
stencil exactly (fast diagonalization: Lynch, Rice & Thomas 1964; Buzbee,
Golub & Nielson 1970), so a solve is one forward transform, a product with
the scaled inverse eigenvalues and one inverse transform, exact up to
rounding. The sine matrix is the grid's, built once per DomainGrid; the
inverse eigenvalues are formed on every solve, from the grid's O(n^2)
factors, in the buffer the forward transform leaves dead, so no cube of
them outlives a solve. A transform is one product per axis with the dense
sine matrix: O(n^4) flops against an FFT's O(n^3 log n), yet faster for
every n <= 128 (see README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField


@dataclass(frozen=True)
class PoissonSolution:
    """Solution field and solve count, which is 1 for every solve."""

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


def solve_dirichlet_poisson(f: ScalarField, overwrite: bool = False) -> PoissonSolution:
    """Solve -Delta_h w = f with zero Dirichlet boundary by sine transforms.

    Two transforms and one product with the scaled inverse eigenvalues, in
    two buffers: the forward transform ends in the first, and the grid forms
    the eigenvalues (DomainGrid.inverse_eigenvalues) in the second, whose
    intermediate is dead by then. The solution field adopts the second.
    With overwrite, f's own buffer is the second, so the solve allocates
    one array: the caller must have made f and alone hold it, and f is gone
    afterwards. A zero right-hand side takes the same
    path, and its solution is exact zeros.
    """
    grid = f.grid
    sines = grid.sine_factors[0]
    first = np.empty(grid.shape)
    second = f._release() if overwrite else np.empty(grid.shape)
    coeffs = _dst1(f.values, sines, first, second)
    coeffs *= grid.inverse_eigenvalues(second)
    return PoissonSolution(ScalarField._own(grid, _dst1(coeffs, sines, second, first)), 1)


def compute_phi(u: ScalarField, coupling: ScalarField) -> ScalarField:
    """Potential generated by u: solve -Delta_h phi = coupling * u^2.

    The coupling field must be nonnegative; that sign condition is what
    makes the potential nonnegative and the energy term well behaved. The
    callers check it once per coupling, ProblemSpec and estimate_constants,
    not on every potential. The solve works in the array of coupling * u^2,
    which the potential adopts.
    """
    u._check_same_grid(coupling)
    rhs = np.square(u.values)
    rhs *= coupling.values
    return solve_dirichlet_poisson(ScalarField._own(u.grid, rhs), overwrite=True).field
