"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdict lines on any terminal; they are also written through to the real
stdout so they survive pytest's capture.
"""

import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spball import (
    ScalarField,
    apply_laplacian,
    build_grid,
    compute_phi,
    estimate_constants,
    first_eigenpair,
    lp_norm,
    manufactured_poisson_error,
    phi_property_check,
    admissible_radius,
)
from spball.energy import ProblemSpec, energy, evaluate
from spball.runner import ExperimentConfig, run_experiment
from spball.sampling import smoothed_random_fields

from conftest import ball_samples, check_residual_bound, directional_derivative, random_field


def _emit(line: str) -> None:
    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    stream.write(line + "\n")
    stream.flush()


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    else:
        _emit(f"ACCEPTANCE {num} ({label}): PASS")


def constant_coupling_spec(n: int, p: float) -> ProblemSpec:
    g = build_grid(n)
    return ProblemSpec(
        p=p,
        coupling=ScalarField(g, np.ones(g.shape)),
        forcing=ScalarField(g, np.ones(g.shape)),
    )


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    """Shared n=16 pipeline runs for the last three criteria."""
    runs = {}
    for p in (7.0, 3.0):
        config = ExperimentConfig.from_dict(
            {
                "grid_n": 16,
                "p": p,
                "coupling": {"constant": 1.0},
                "forcing": {"scaled_to_bound": 1.0},
                "samples": 200,
                "seed": 11,
            }
        )
        out = tmp_path_factory.mktemp(f"run_p{int(p)}")
        t0 = time.perf_counter()
        report = run_experiment(config, out_dir=out)
        elapsed = time.perf_counter() - t0
        runs[p] = (config, report, out, elapsed)
    return runs


def test_criterion_1_poisson_manufactured_order():
    with criterion(1, "manufactured Poisson order on n=8,16,32"):
        t0 = time.perf_counter()
        errors = {n: manufactured_poisson_error(n) for n in (8, 16, 32)}
        elapsed = time.perf_counter() - t0
        orders = [
            math.log(errors[a] / errors[b]) / math.log(b / a)
            for a, b in ((8, 16), (16, 32))
        ]
        assert all(1.8 <= order <= 2.2 for order in orders), orders
        assert elapsed < 60.0, elapsed


def test_criterion_2_eigenfunction_exactness():
    with criterion(2, "eigenfunction identity at n=8"):
        g = build_grid(8)
        e1, lam = first_eigenpair(g)
        diff = apply_laplacian(e1) - lam * e1
        rel_l2 = lp_norm(diff, 2) / lp_norm(lam * e1, 2)
        rel_max = float(np.abs(diff.values).max()) / float(np.abs(lam * e1.values).max())
        assert rel_l2 <= 1e-12, rel_l2
        assert rel_max <= 1e-12, rel_max


def test_criterion_3_potential_structure_audit():
    with criterion(3, "potential sign/scaling/bound on 50 fields"):
        spec = constant_coupling_spec(8, 3.0)
        ball, _ = estimate_constants(3.0, spec.coupling)
        fields = smoothed_random_fields(spec.grid, 50, seed=303)
        assert len(fields) == 50
        for u in fields:
            s = evaluate(u, spec)
            nonneg, bound = phi_property_check(s, ball)
            assert nonneg and bound
            phi = compute_phi(u, spec.coupling)
            assert s.phi_range == (float(phi.values.min()), float(phi.values.max()))
            scaled = compute_phi(2.0 * u, spec.coupling)
            assert lp_norm(scaled - 4.0 * phi, 2) <= 1e-9 * lp_norm(phi, 2)


def test_criterion_4_first_variation_audit():
    with criterion(4, "first variation vs finite differences"):
        for p in (2.0, 3.0, 7.0):
            spec = constant_coupling_spec(4, p)
            rng = np.random.default_rng(404)
            for _ in range(20):
                u = random_field(spec.grid, rng, scale=0.7)
                v = random_field(spec.grid, rng, scale=0.7)
                dd = directional_derivative(evaluate(u, spec), spec, v)
                best = math.inf
                for eps in (1e-4, 1e-5, 1e-6):
                    e_plus = energy(evaluate(u + eps * v, spec))
                    e_minus = energy(evaluate(u - eps * v, spec))
                    fd = (e_plus - e_minus) / (2.0 * eps)
                    best = min(best, abs(fd - dd) / max(abs(dd), 1e-30))
                assert best <= 1e-6, (p, best)


def test_criterion_5_radius_certificates():
    with criterion(5, "admissible radius bisection certificates"):
        # closed forms to 1e-12 relative
        assert abs(admissible_radius(1.0, 1e-30, 3.0) - math.sqrt(0.5)) <= 1e-12 * math.sqrt(0.5)
        assert abs(admissible_radius(1.0, 1.0, 3.0) - 0.5) <= 1e-12 * 0.5
        r7 = admissible_radius(1.0, 1.0, 7.0)
        assert 0.65 < r7 < 0.66
        # sign certificate and the inequality on a 100-point log grid
        for c1, c2, p in [
            (1.0, 1.0, 7.0),
            (1.0, 1e-30, 3.0),
            (4.3e-6, 6.8e-9, 7.0),
            (0.37, 1.9, 2.0),
        ]:
            r = admissible_radius(c1, c2, p)
            g = lambda x: c1 * x * x + c2 * x ** (p - 1.0) - 0.5
            assert g(r * (1.0 - 1e-9)) <= 0.0
            assert g(r * (1.0 + 1e-9)) >= 0.0
            for x in np.geomspace(r * 1e-6, r, 100):
                assert c1 * x**3 + c2 * x**p <= 0.5 * x * (1.0 + 1e-14)


def test_criterion_6_residual_bound_audit():
    with criterion(6, "residual bound on 100 fresh ball samples"):
        spec = constant_coupling_spec(8, 3.0)
        ball, _ = estimate_constants(spec.p, spec.coupling, safety=2.0)
        fields = ball_samples(spec.grid, 100, seed=707, radius=ball.radius)
        assert len(fields) == 100
        for u in fields:
            lhs, rhs, holds = check_residual_bound(u, ball, spec)
            assert holds, (lhs, rhs)


def test_criterion_7_end_to_end_verification(end_to_end):
    with criterion(7, "end-to-end solve and verify at n=16, p=7 and p=3"):
        for p in (7.0, 3.0):
            config, report, out, elapsed = end_to_end[p]
            ver = report.verification
            assert report.energy < 0.0, (p, report.energy)
            assert ver.fixed_point_rel_residual <= 1e-6, (p, ver.fixed_point_rel_residual)
            assert ver.pde_rel_residual <= 1e-5, (p, ver.pde_rel_residual)
            # the variational inequality's gap over the whole ball is at least
            # -fp^2, relative to 1/2||grad u||^2, so this bounds it at every probe
            fp = ver.fixed_point_rel_residual
            assert fp * fp <= 1e-8, (p, fp)
            assert "aux_in_ball" not in ver.failed_checks, p
            assert ver.passed, p
            assert elapsed <= 600.0, (p, elapsed)


def test_criterion_8_nontriviality(end_to_end):
    with criterion(8, "minimizer is nontrivial"):
        for p in (7.0, 3.0):
            _, report, _, _ = end_to_end[p]
            assert report.minimize_summary["minimizer_l2"] >= 1e-6, p


def test_criterion_9_determinism(end_to_end, tmp_path):
    with criterion(9, "repeat run with the same seed is byte-identical"):
        config, report, out, _ = end_to_end[7.0]
        repeat_dir = tmp_path / "repeat"
        repeat = run_experiment(config, out_dir=repeat_dir)
        first_trace = (out / "trace.csv").read_bytes()
        second_trace = (repeat_dir / "trace.csv").read_bytes()
        assert first_trace == second_trace
        a, b = report.to_dict(), repeat.to_dict()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b
