"""Kernel-made fields own their arrays, and the hot path's allocation budget.

A kernel hands its fresh output array to the field it returns instead of
copying it, so such a field must still be read-only, share no memory with
the kernel's inputs and pass the finiteness scan. The budgets are
tracemalloc peaks in units of one field's array, (n-1)^3 float64 values:
an extra copy or a hidden temporary of field size shows as a whole unit.
The finiteness scan's boolean mask is an eighth of one.
"""

import tracemalloc

import numpy as np
import pytest

from spball.energy import ProblemSpec, evaluate, gradient_field
from spball.grid import (
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from spball.poisson import compute_phi, solve_dirichlet_poisson

from conftest import random_field


def _problem(n, rng):
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = ScalarField(g, np.ones(g.shape))
    spec = ProblemSpec(p=3.0, coupling=coupling, forcing=e1, grid=g)
    return spec, random_field(g, rng)


def test_kernel_fields_are_read_only_and_share_no_memory_with_inputs(rng):
    spec, u = _problem(6, rng)
    v = random_field(spec.grid, rng)
    s = evaluate(u, spec)
    inputs = (u.values, v.values, spec.coupling.values, spec.forcing.values)
    made = {
        "sum": u + v,
        "difference": u - v,
        "negation": -u,
        "product": u * v,
        "scaling": 2.0 * u,
        "quotient": u / 3.0,
        "laplacian": apply_laplacian(u),
        "solve": solve_dirichlet_poisson(u).field,
        "zero solve": solve_dirichlet_poisson(ScalarField.zeros(spec.grid)).field,
        "potential": compute_phi(u, spec.coupling),
        "eigenfunction": first_eigenpair(spec.grid)[0],
        "state phi": s.phi,
        "state lap": s.lap,
        "state rhs": s.rhs,
        "residual": s.residual,
        "gradient": gradient_field(s),
    }
    arrays = [f.values for f in made.values()]
    for name, field in made.items():
        assert not field.values.flags.writeable, name
        assert field.values.dtype == np.float64 and field.values.shape == spec.grid.shape, name
        for other in inputs:
            assert not np.shares_memory(field.values, other), name
        assert sum(np.shares_memory(field.values, a) for a in arrays) == 1, name


def test_kernel_results_that_overflow_raise_value_error():
    # the finiteness scan, not a copy, is what turns an overflow into the
    # typed error; numpy's own overflow warning is silenced to reach it
    g = build_grid(5)
    big = ScalarField(g, np.full(g.shape, 1e200))
    coupling = ScalarField(g, np.ones(g.shape))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            big * big
        with pytest.raises(ValueError, match="finite"):
            1e200 * big
        with pytest.raises(ValueError, match="finite"):
            apply_laplacian(ScalarField(g, np.full(g.shape, 1.7e308)))
        with pytest.raises(ValueError, match="finite"):
            compute_phi(big, coupling)


def _peak_in_fields(grid, fn, *args) -> float:
    """tracemalloc peak of fn(*args) in units of one field on grid."""
    fn(*args)  # builds the grid's sine factors before the count starts
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * grid.interior_count)


# kernel -> budget: its output arrays, its buffers and one finiteness mask
BUDGETS = {
    "solve": 2.25,  # two transform buffers; the field adopts the second
    "compute_phi": 3.25,  # c u^2 and the solve's two buffers
    "scalar product": 1.25,
    # phi, lap, c phi u and the power array that becomes rhs; the stencil's
    # strided subtractions add numpy temporaries (0.9 of a field at n=16)
    "evaluate": 5.0,
    "lp_norm m=2": 0.25,  # no array: the dot product of u with itself
    "lp_norm m=3": 1.25,  # u*u, signed in place
}


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("kernel", sorted(BUDGETS))
def test_hot_path_allocation_budget(rng, n, kernel):
    spec, u = _problem(n, rng)
    calls = {
        "solve": (solve_dirichlet_poisson, u),
        "compute_phi": (compute_phi, u, spec.coupling),
        "scalar product": (ScalarField.__mul__, u, 2.0),
        "evaluate": (evaluate, u, spec),
        "lp_norm m=2": (lp_norm, u, 2.0),
        "lp_norm m=3": (lp_norm, u, 3.0),
    }
    assert _peak_in_fields(spec.grid, *calls[kernel]) <= BUDGETS[kernel]


def test_public_constructor_copies_once(rng):
    g = build_grid(32)
    ints = rng.integers(-9, 9, size=g.shape)
    assert _peak_in_fields(g, ScalarField, g, ints) <= 1.25
