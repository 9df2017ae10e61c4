"""Direct Poisson solver for the 7-point Dirichlet stencil.

On the uniform cube the type-I discrete sine transform diagonalizes the
stencil exactly (fast diagonalization: Lynch, Rice & Thomas 1964; Buzbee,
Golub & Nielson 1970), so a solve is one forward transform, a division by
the eigenvalues and one inverse transform, exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError
from .grid import ScalarField, neg_laplacian_array


@dataclass(frozen=True)
class PoissonSolution:
    """Solution field, solve count and final true residual (discrete L2).

    iterations is 1 for a transform solve and 0 for a zero right-hand side;
    final_residual is the measured ||f + Delta_h w||, kept to detect faults.
    """

    field: ScalarField
    iterations: int
    final_residual: float


def _dst1(values: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I, sum_j a_j sin(pi j k / n), along every axis.

    Computed from the FFT of the odd extension [0, a, 0, -reversed(a)] of
    length 2n; applying it twice multiplies by n/2 per axis.
    """
    out = values
    for axis in range(out.ndim):
        a = np.moveaxis(out, axis, -1)
        zero = np.zeros(a.shape[:-1] + (1,))
        odd = np.concatenate((zero, a, zero, -a[..., ::-1]), axis=-1)
        transformed = -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1 : a.shape[-1] + 1]
        out = np.moveaxis(transformed, -1, axis)
    return out


def solve_dirichlet_poisson(f: ScalarField) -> PoissonSolution:
    """Solve -Delta_h w = f with zero Dirichlet boundary by sine transforms.

    The stencil's eigenvalues are (4/h^2) sum_i sin^2(pi k_i / (2n)) for
    modes k_i in 1..n-1. A zero right-hand side returns the zero field.
    """
    grid = f.grid
    n, h = grid.n, grid.h
    b = f.values
    if not np.any(b):
        return PoissonSolution(ScalarField.zeros(grid), 0, 0.0)

    s = np.sin(0.5 * np.pi * np.arange(1, n) / n) ** 2
    eig = (4.0 / (h * h)) * (s[:, None, None] + s[None, :, None] + s[None, None, :])
    w = (2.0 / n) ** 3 * _dst1(_dst1(b) / eig)
    residual = float(np.linalg.norm(b - neg_laplacian_array(w, h))) * h**1.5
    return PoissonSolution(ScalarField(grid, w), 1, residual)


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
