"""Direct Poisson solver for the 7-point Dirichlet stencil.

On the uniform cube the type-I discrete sine transform diagonalizes the
stencil exactly (fast diagonalization: Lynch, Rice & Thomas 1964; Buzbee,
Golub & Nielson 1970), so a solve is one forward transform, a product with
the scaled inverse eigenvalues and one inverse transform, exact up to
rounding. The sine matrices are the grid's, built once per DomainGrid; the
inverse eigenvalues are formed on every solve, from the grid's O(n^2)
factors, in the buffer the forward transform leaves dead, so no cube of
them outlives a solve. A transform is one product per axis with a dense
matrix: O(n^4) flops against an FFT's O(n^3 log n), yet faster for every
n <= 128 (see README).

A right-hand side that equals its mirror image about each of the cube's
three midplanes, exactly, holds only odd sine modes, and so does its
solution. Such a solve runs on the sector of the first n // 2 nodes per
axis, with the folded matrices of grid.sine_factors(True) (symmetric
transforms: Swarztrauber 1986), and mirrors the sector's solution into the
full cube: an eighth of the entries and a sixteenth of the transform
flops. Every right-hand side of a run is mirror-even: e1, every coupling
and every forcing kind are, and each field a run solves for is formed
from them, and from earlier solutions, node by node.
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


def _dst1(values: np.ndarray, matrix: tuple[np.ndarray, np.ndarray], out: np.ndarray,
          work: np.ndarray) -> np.ndarray:
    """The product with a square matrix M along every axis of a cube,
    sum_j a_j M[j, k] per axis; for the DST-I matrix the unnormalized
    transform, sum_j a_j sin(pi j k / n).

    matrix is M beside its transpose, both C-ordered: M multiplies the last
    axis from the right and its transpose the other two from the left, one
    product each, alternating between the caller's buffers out and work and
    ending in out, which is returned. out must be C-ordered, or it is a
    ValueError: the last product writes through a reshaped view, which would
    otherwise be a copy. Only the first product reads values, so values may
    be work itself. Applying the DST-I twice multiplies by n/2 per axis.
    """
    if not out.flags.c_contiguous:
        raise ValueError("_dst1 needs a C-ordered output array")
    right, left = matrix
    m = len(out)
    np.matmul(values, right, out=out)
    np.matmul(left, out, out=work)
    np.matmul(left, work.reshape(m, -1), out=out.reshape(m, -1))
    return out


def _mirror_even(values: np.ndarray) -> bool:
    """Whether values equal their mirror image about each of the cube's
    three midplanes exactly.

    Per axis, one comparison of the first half with the reversed last half
    into a bool array: along the first axis over the whole cube, along the
    second over the planes up to the centre, along the third over those
    planes' rows up to the centre. A cube even along the earlier axes is
    its part up to their centres reflected, so 7/8 of its entries are
    compared in all.
    """
    half = len(values) // 2
    core = len(values) - half  # up to and including the centre
    rev = slice(None, -half - 1, -1)  # the last half, reversed
    with np.errstate():
        # numpy buffers an operand with short contiguous runs in bufsize
        # elements, 8192 by default: two 64 KB buffers, half a field at
        # n=32; 1024 costs no time. count_nonzero rather than all(), whose
        # logical reduction would load 64 KB of numpy code no run uses else
        np.setbufsize(1024)
        for lead in ((), (slice(core),), (slice(core), slice(core))):
            if np.count_nonzero(values[lead + (slice(half),)] != values[lead + (rev,)]):
                return False
    return True


def _mirror(sector: np.ndarray, out: np.ndarray) -> None:
    """Fill the full cube out with the mirror-even field whose first
    k = len(sector) nodes per axis hold sector: four copies from sector
    fill the first k planes, the upper half of the other two axes reading
    sector's reversed, and one copy mirrors those planes into the rest.
    sector may lie in out past its first k planes, which that last copy
    overwrites once sector is read; no copy reads what it writes, so none
    makes a temporary."""
    k = len(sector)
    rev = slice(len(out) - k - 1, None, -1)  # the first len(out) - k nodes, reversed
    out[:k, :k, :k] = sector
    out[:k, :k, k:] = sector[:, :, rev]
    out[:k, k:, :k] = sector[:, rev]
    out[:k, k:, k:] = sector[:, rev, rev]
    out[k:] = out[rev]


def solve_dirichlet_poisson(f: ScalarField, overwrite: bool = False) -> PoissonSolution:
    """Solve -Delta_h w = f with zero Dirichlet boundary by sine transforms.

    Two transforms and one product with the scaled inverse eigenvalues, in
    two buffers: the forward transform ends in the first, and the grid forms
    the eigenvalues (DomainGrid.inverse_eigenvalues) in the second, whose
    intermediate is dead by then, and the inverse transform ends in the
    second. The second is the output's own memory: all of it for a full
    solve, and for an f that is exactly mirror-even, solved on its sector
    with the grid's sine_factors(True), the (n // 2)^3 entries that follow
    its first n // 2 planes. Those planes hold the only entries of f that
    the forward transform reads, and the mirror copy of the sector's
    solution fills them first. With overwrite the output is f's own
    buffer, so a solve allocates the first buffer alone, a cube of
    (n-1)^3 entries, or of (n // 2)^3 when folded: the caller must have
    made f and alone hold it, and f is gone afterwards. A zero right-hand
    side takes the same path, and its solution is exact zeros.
    """
    grid = f.grid
    forward, inverse, _, _ = grid.sine_factors(_mirror_even(f.values))
    k = len(forward[0])
    out = f._release() if overwrite else np.empty(grid.shape)
    first = np.empty((k, k, k))
    second = out if k == len(out) else out[k:].reshape(-1)[: k**3].reshape(k, k, k)
    coeffs = _dst1(f.values[:k, :k, :k], forward, first, second)
    coeffs *= grid.inverse_eigenvalues(second)
    solution = _dst1(coeffs, inverse, second, first)
    if k < len(out):
        _mirror(solution, out)
    return PoissonSolution(ScalarField._own(grid, out), 1)


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
