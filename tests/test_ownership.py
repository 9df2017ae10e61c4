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

import spball.runner as runner_module
from spball.ball import estimate_constants, make_ball
from spball.energy import ProblemSpec, evaluate, gradient_field
from spball.grid import (
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from spball.minimize import initial_guess
from spball.poisson import compute_phi, solve_dirichlet_poisson
from spball.runner import ExperimentConfig, run_experiment
from spball.verify import phi_property_check, verify

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
    return peak / (8 * (grid.n - 1) ** 3)


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


# the ball constants, the start and verify, once per run -> budget
STAGE_BUDGETS = {
    # e1, c e1^2 and the solve's two buffers; at n=16 the stencil for e1's
    # ball norm adds its strided temporaries on top of e1 and its Laplacian
    "estimate_constants": 5.0,
    # e, the candidate's u, phi and lap, and the c phi u and power arrays
    # its state forms, but no state of e itself; at n=16 the 401-point t grid
    # and its polynomial add half a field
    "initial_guess": 6.75,
    # no solve: one array at a time, the signed square behind the L3 norm
    # of rhs (aux_in_ball) and then of the strong residual (pde); max |phi_u|
    # comes from the min and max
    "verify": 1.25,
}


def _stage_problem(n):
    """(spec, ball, phi_e1) of the solve-n32 config on an n-grid."""
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = ScalarField.constant(g, 1.0)
    ball, phi_e1 = make_ball(7.0, coupling)
    forcing = (0.5 * ball.forcing_bound / lp_norm(e1, 3)) * e1
    return ProblemSpec(p=7.0, coupling=coupling, forcing=forcing, grid=g), ball, phi_e1


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("stage", sorted(STAGE_BUDGETS))
def test_run_stage_allocation_budget(n, stage):
    spec, ball, phi_e1 = _stage_problem(n)
    s = initial_guess(spec, ball.radius, phi_e1)
    calls = {
        "estimate_constants": (estimate_constants, 7.0, spec.coupling),
        "initial_guess": (initial_guess, spec, ball.radius, phi_e1),
        "verify": (verify, s, gradient_field(s), spec, ball),
    }
    assert _peak_in_fields(spec.grid, *calls[stage]) <= STAGE_BUDGETS[stage]


@pytest.mark.parametrize("n", [16, 32])
def test_verify_gates_allocate_one_field(n):
    # the potential's gates take min and max of phi_u and pair the state's
    # terms, so they form no array; verify's gates as a whole form one, the
    # signed square behind an L3 norm
    spec, ball, phi_e1 = _stage_problem(n)
    s = initial_guess(spec, ball.radius, phi_e1)
    assert _peak_in_fields(spec.grid, phi_property_check, s, ball) <= 0.25
    assert _peak_in_fields(spec.grid, verify, s, gradient_field(s), spec, ball) <= 1.25


# a whole run of the solve-n32 config, in fields; the descent holds
# the forcing, the sine factors' eigenvalue cube, the current state with its
# residual, its gradient and the trial's state as it is formed, but neither
# phi_e1 after the initial guess nor the old state's phi and rhs while the
# step's displacement is taken
RUN_BUDGET = 13.5


def test_run_allocation_budget():
    config = ExperimentConfig.from_dict({
        "grid_n": 32, "p": 7.0, "coupling": {"constant": 1},
        "forcing": {"scaled_to_bound": 0.5},
    })
    assert _peak_in_fields(build_grid(32), run_experiment, config, None, False) <= RUN_BUDGET


def test_constant_field_is_a_read_only_zero_stride_view():
    g = build_grid(8)
    c = ScalarField.constant(g, 2.5)
    assert c.values.shape == g.shape
    assert c.values.strides == (0, 0, 0)
    assert not c.values.flags.writeable
    with pytest.raises(ValueError):
        c.values[0, 0, 0] = 1.0
    assert np.array_equal(c.values, np.full(g.shape, 2.5))
    with pytest.raises(ValueError, match="finite"):
        ScalarField.constant(g, np.inf)


def _materialized(grid, value):
    return ScalarField(grid, np.full(grid.shape, value))


def test_constant_coupling_view_gives_the_bits_of_a_full_array(rng, monkeypatch):
    g = build_grid(8)
    u = random_field(g, rng)
    view, full = ScalarField.constant(g, 3.0), _materialized(g, 3.0)
    assert np.array_equal(compute_phi(u, view).values, compute_phi(u, full).values)
    specs = [ProblemSpec(p=3.0, coupling=c, forcing=first_eigenpair(g)[0], grid=g)
             for c in (view, full)]
    a, b = (evaluate(u, spec) for spec in specs)
    for name in ("phi", "rhs", "lap"):
        assert np.array_equal(getattr(a, name).values, getattr(b, name).values), name
    assert a.terms == b.terms
    ca, cb = estimate_constants(7.0, view), estimate_constants(7.0, full)
    assert ca[:3] == cb[:3]
    assert np.array_equal(ca[3].values, cb[3].values)

    config = ExperimentConfig.from_dict({
        "grid_n": 8, "p": 3.0, "coupling": {"constant": 1.0},
        "forcing": {"scaled_to_bound": 1.0}, "safety": 1.0,
    })
    with_view = run_experiment(config, write_outputs=False).to_dict()
    monkeypatch.setattr(runner_module, "_build_coupling",
                        lambda grid, spec: _materialized(grid, float(spec["constant"])))
    with_full = run_experiment(config, write_outputs=False).to_dict()
    assert with_view["minimize_summary"]["iterations"] > 1
    with_view.pop("wall_time"), with_full.pop("wall_time")
    assert with_view == with_full


def test_public_constructor_copies_once(rng):
    g = build_grid(32)
    ints = rng.integers(-9, 9, size=g.shape)
    assert _peak_in_fields(g, ScalarField, g, ints) <= 1.25
