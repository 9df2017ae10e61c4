"""Tour of the grid layer: fields, the discrete Laplacian, and the norms.

Everything downstream is built from these pieces, so this script checks the
two identities the rest of the package leans on: summation by parts (the
discrete Dirichlet energy equals the Laplacian pairing the state holds) and
the exact eigenpair of the operator on the unit cube.
"""

import numpy as np

from spball import (
    ProblemSpec,
    ScalarField,
    apply_laplacian,
    build_grid,
    evaluate,
    first_eigenpair,
    lp_norm,
)

grid = build_grid(12)
print(f"grid: n={grid.n}, h={grid.h:.4f}, interior nodes={np.prod(grid.shape)}")

c = np.arange(1, grid.n) / grid.n  # the interior nodes i h
x, y, z = np.meshgrid(c, c, c, indexing="ij")
u = ScalarField(grid, np.sin(np.pi * x) * y * (1.0 - y) * z * (1.0 - z))

# the state of u holds -Delta_h u, ||grad u||^2 and the ball norm ||-Delta_h u||_3
spec = ProblemSpec(
    p=3.0,
    coupling=ScalarField.constant(grid, 1.0),
    forcing=ScalarField.zeros(grid),
)
s = evaluate(u, spec)
print(f"lp_norm(u, 2)   = {lp_norm(u, 2):.6e}")
print(f"lp_norm(u, 3)   = {lp_norm(u, 3):.6e}")
print(f"||grad u||      = {np.sqrt(s.grad_sq):.6e}")
print(f"ball norm s.w2n = {s.w2n:.6e}")

# summation by parts: forward differences over every face of the zero-padded
# cube give <-Delta_h u, u> h^3, which is what the state reads
padded = np.pad(u.values, 1)
faces = sum(float(np.sum(np.diff(padded, axis=a) ** 2)) for a in range(3))
grad_sq = faces * grid.h  # (d/h)^2 summed over faces, times h^3
pairing = float(np.vdot(apply_laplacian(u).values, u.values)) * grid.h**3
print(f"summation by parts: |differences - pairing| = {abs(grad_sq - pairing):.3e}")
print(f"                    |differences - s.grad_sq| = {abs(grad_sq - s.grad_sq):.3e}")

# the sampled first eigenfunction is an exact discrete eigenpair
e1, lam = first_eigenpair(grid)
residual = apply_laplacian(e1) - lam * e1
print(f"first eigenvalue lambda_h = {lam:.8f}  (3*pi^2 = {3 * np.pi**2:.8f})")
print(f"eigen residual (sup norm) = {np.abs(residual.values).max():.3e}")
