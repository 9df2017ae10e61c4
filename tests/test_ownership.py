"""Kernel-made fields own their arrays, and the hot path's allocation budget.

A kernel hands its fresh output array to the field it returns instead of
copying it, so such a field must still be read-only, share no memory with
the kernel's inputs and pass the finiteness scan. A buffer is reused only
once no other object holds it: the potential's solve works in the array of
c u^2, a state forms rhs in the potential's array, its gradient writes the
residual into the Laplacian's array and solves in rhs's, and the descent
forms a step in the dropped iterate's slot of its history. The budgets are
tracemalloc peaks in units of one field's array, (n-1)^3 float64 values:
an extra copy or a hidden temporary of field size shows as a whole unit.
The finiteness scan is a minimum and a maximum and forms no array.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import spball.energy as energy_module
import spball.minimize as minimize_module
import spball.runner as runner_module
from spball.ball import estimate_constants
from spball.energy import ProblemSpec, evaluate, gradient_field
from spball.grid import (
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    lp_norm,
    neg_laplacian_array,
    _sealed,
)
from spball.minimize import initial_guess
from spball.poisson import compute_phi, solve_dirichlet_poisson
from spball.runner import ExperimentConfig, run_experiment
from spball.verify import phi_property_check, verify

from conftest import equation_rhs, random_field


def _problem(n, rng):
    g = build_grid(n)
    e1, _ = first_eigenpair(g)
    coupling = ScalarField(g, np.ones(g.shape))
    spec = ProblemSpec(p=3.0, coupling=coupling, forcing=e1)
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
        "gradient": s.g,
        "residual": s.residual,
    }
    arrays = [f.values for f in made.values()]
    for name, field in made.items():
        assert not field.values.flags.writeable, name
        assert field.values.dtype == np.float64 and field.values.shape == spec.grid.shape, name
        for other in inputs:
            assert not np.shares_memory(field.values, other), name
        assert sum(np.shares_memory(field.values, a) for a in arrays) == 1, name


def _address(values: np.ndarray) -> int:
    return values.__array_interface__["data"][0]


def test_a_buffer_is_reused_only_once_no_other_object_holds_it(rng, monkeypatch):
    # (the solve that works in its right-hand side's buffer, as compute_phi's
    # does in c u^2's, is tests/test_poisson.py's)
    spec, u = _problem(6, rng)
    # the state forms rhs in its potential's array, which nobody else holds;
    # the gradient writes the residual into the Laplacian's array and solves
    # in rhs's, where g is formed
    made = {"potential": [], "laplacian": []}
    compute_phi_, apply_laplacian_ = energy_module.compute_phi, energy_module.apply_laplacian

    def recording_phi(v, coupling):
        made["potential"].append(compute_phi_(v, coupling))
        return made["potential"][-1]

    def recording_laplacian(v):
        made["laplacian"].append(apply_laplacian_(v))
        return made["laplacian"][-1]

    monkeypatch.setattr(energy_module, "compute_phi", recording_phi)
    monkeypatch.setattr(energy_module, "apply_laplacian", recording_laplacian)
    s = evaluate(u, spec)
    assert _address(s.g.values) == _address(made["potential"][0].values)
    assert _address(s.residual.values) == _address(made["laplacian"][0].values)
    lap, rhs = apply_laplacian(u), equation_rhs(u, spec)
    g, residual, _, _ = gradient_field(u, lap, rhs)
    assert _address(residual.values) == _address(lap.values)
    assert _address(g.values) == _address(rhs.values)
    assert np.array_equal(residual.values, s.residual.values)
    assert np.array_equal(g.values, s.g.values)
    # what the caller holds is never written: the field a trial is made
    # from keeps its values through evaluate, retraction included
    before = u.values.copy()
    evaluate(u, spec, 0.5 * s.w2n)
    assert np.array_equal(u.values, before)


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


# kernel -> budget: its output arrays and its buffers
BUDGETS = {
    "solve": 2.25,  # two transform buffers; the field adopts the second
    "compute_phi": 2.25,  # c u^2, which the potential adopts, and one solve buffer
    "scalar product": 1.25,
    # phi, in which c phi u and then rhs are formed, lap, in which the
    # residual is, and the power array, freed before the gradient's solve
    # adds one buffer to rhs's own, where g is formed
    "evaluate": 3.25,
    # a minimum and a maximum, no boolean mask (an eighth of a field)
    "finiteness scan": 0.0625,
    # the output and a saved face or two of the flat passes, (n-1)^2 values each
    "neg_laplacian_array": 1.25,
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
        "finiteness scan": (_sealed, spec.grid, u.values),
        "neg_laplacian_array": (neg_laplacian_array, u.values, spec.grid.h),
        "lp_norm m=2": (lp_norm, u, 2.0),
        "lp_norm m=3": (lp_norm, u, 3.0),
    }
    assert _peak_in_fields(spec.grid, *calls[kernel]) <= BUDGETS[kernel]


# the ball constants, the start and verify, once per run -> budget
STAGE_BUDGETS = {
    # e1, the signed square behind ||e1||_3, then phi_e1, c phi_e1 e1 and
    # the signed square behind its L3 norm; the ball's other numbers are
    # sums over one axis
    "estimate_constants": 4.25,
    # the candidate's u, the residual in lap's array and rhs, formed in
    # phi's array once the power array is gone, whose buffer its gradient
    # solve reuses beside one more: 4 fields, but no state of e; the
    # 401-point t grid and its polynomial are freed before that solve
    # (4.12 and 4.01 fields at n=16 and 32)
    "initial_guess": 4.25,
    # no solve and no array: the L3 norms of rhs (aux_in_ball) and of the
    # strong residual (pde) and the range of phi_u come with the state
    "verify": 0.25,
}


def _stage_problem(n):
    """(spec, ball, mode) of the solve-n32 config on an n-grid."""
    g = build_grid(n)
    coupling = ScalarField.constant(g, 1.0)
    ball, mode = estimate_constants(7.0, coupling)
    forcing = (0.5 * ball.forcing_bound / mode.norm) * mode.e1
    return ProblemSpec(p=7.0, coupling=coupling, forcing=forcing), ball, mode


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("stage", sorted(STAGE_BUDGETS))
def test_run_stage_allocation_budget(n, stage):
    spec, ball, mode = _stage_problem(n)
    s = initial_guess(spec, ball, mode)
    calls = {
        "estimate_constants": (estimate_constants, 7.0, spec.coupling),
        "initial_guess": (initial_guess, spec, ball, mode),
        "verify": (verify, s, spec, ball),
    }
    assert _peak_in_fields(spec.grid, *calls[stage]) <= STAGE_BUDGETS[stage]


@pytest.mark.parametrize("n", [16, 32])
def test_verify_gates_allocate_one_field(n):
    # the potential's gates read the state's range of phi_u and pair its
    # terms, so they form no array; verify's gates as a whole read the
    # state's norms and form none either, within the one field allowed
    spec, ball, mode = _stage_problem(n)
    s = initial_guess(spec, ball, mode)
    assert _peak_in_fields(spec.grid, phi_property_check, s, ball) <= 0.25
    assert _peak_in_fields(spec.grid, verify, s, spec, ball) <= 1.25


# a whole run, in fields, per config: the descent holds the forcing, the
# sine factors' eigenvalue cube, the iterate's u, g and residual and the
# trial's state as it is formed, but not e1 or phi_e1 after the initial
# guess. A trial's gradient solve holds the trial's u, the residual in
# lap's array, rhs (formed in the phi array once the power array is gone),
# whose buffer the solve reuses, and one more buffer; with the iterate's
# arrays beside it, that solve is the peak. The trace records the stop
# test's residual, so an accepted step runs no stencil of its own.
# descent-n32 adds its Anderson history, two arrays per step, but a trial
# is formed and evaluated with two steps held, not three: the window drops
# its oldest step once the mixture has read it
RUN_CONFIGS = {
    "solve-n32": {"grid_n": 32, "p": 7.0, "coupling": {"constant": 1},
                  "forcing": {"scaled_to_bound": 0.5}},
    "descent-n32": {"grid_n": 32, "p": 3.0, "coupling": {"constant": 1},
                    "forcing": {"scaled_to_bound": 1.0}, "safety": 1.0},
}
RUN_BUDGETS = {"solve-n32": 9.25, "descent-n32": 13.25}


def _run_peak(name: str) -> float:
    config = ExperimentConfig.from_dict(RUN_CONFIGS[name])
    return _peak_in_fields(build_grid(32), run_experiment, config)


def test_run_allocation_budget():
    assert _run_peak("solve-n32") <= RUN_BUDGETS["solve-n32"]


def test_descent_run_allocation_budget():
    assert _run_peak("descent-n32") <= RUN_BUDGETS["descent-n32"]


def test_a_run_frees_e1_and_its_potential_after_the_start(monkeypatch):
    # the run's one FirstMode goes to minimize alone, which drops it once
    # the start has read it: by the first trial's evaluate, e1 and phi_e1
    # are gone, and the result holds neither
    refs = []
    trials = 0
    estimate_constants_ = runner_module.estimate_constants
    evaluate_ = minimize_module.evaluate

    def recording_ball(*args):
        ball, mode = estimate_constants_(*args)
        refs.extend((weakref.ref(mode.e1), weakref.ref(mode.phi)))
        return ball, mode

    def checking_evaluate(u, spec, radius):
        nonlocal trials
        trials += 1
        assert [ref() for ref in refs] == [None, None]
        return evaluate_(u, spec, radius)

    monkeypatch.setattr(runner_module, "estimate_constants", recording_ball)
    monkeypatch.setattr(minimize_module, "evaluate", checking_evaluate)
    config = ExperimentConfig.from_dict(RUN_CONFIGS["solve-n32"])
    report = run_experiment(config)
    assert report.verification.passed
    assert trials >= 1
    assert len(refs) == 2 and [ref() for ref in refs] == [None, None]


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
    specs = [ProblemSpec(p=3.0, coupling=c, forcing=first_eigenpair(g)[0])
             for c in (view, full)]
    a, b = (evaluate(u, spec) for spec in specs)
    for name in ("u", "g", "residual"):
        assert np.array_equal(getattr(a, name).values, getattr(b, name).values), name
    assert (a.terms, a.phi_range, a.residual_norm, a.rhs_norm) == (
        b.terms, b.phi_range, b.residual_norm, b.rhs_norm)
    ca, cb = estimate_constants(7.0, view), estimate_constants(7.0, full)
    assert ca[0] == cb[0]
    assert np.array_equal(ca[1].phi.values, cb[1].phi.values)

    config = ExperimentConfig.from_dict({
        "grid_n": 8, "p": 3.0, "coupling": {"constant": 1.0},
        "forcing": {"scaled_to_bound": 1.0}, "safety": 1.0,
    })
    with_view = run_experiment(config).to_dict()
    monkeypatch.setattr(runner_module, "_build_coupling",
                        lambda grid, spec: _materialized(grid, float(spec["constant"])))
    with_full = run_experiment(config).to_dict()
    assert with_view["minimize_summary"]["iterations"] > 1
    with_view.pop("wall_time"), with_full.pop("wall_time")
    assert with_view == with_full


def test_public_constructor_copies_once(rng):
    g = build_grid(32)
    ints = rng.integers(-9, 9, size=g.shape)
    assert _peak_in_fields(g, ScalarField, g, ints) <= 1.25
