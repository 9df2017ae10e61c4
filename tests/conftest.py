"""Shared oracles and helpers for the test suite."""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from collections import Counter

import numpy as np
import pytest

from spball import energy as energy_module
from spball import grid as grid_module
from spball.ball import BallSpec, estimate_constants
from spball.cli import main
from spball.energy import FieldState, ProblemSpec, _signed_power, evaluate
from spball.errors import OutsideBallError
from spball.grid import DomainGrid, ScalarField, apply_laplacian, first_eigenpair, lp_norm
from spball.poisson import PoissonSolution, compute_phi
from spball.sampling import smoothed_random_fields


def dense_neg_laplacian(n: int) -> np.ndarray:
    """Dense matrix of the 7-point -Laplacian on the interior of an n-grid.

    Built independently of the solver code via Kronecker products of the 1D
    second-difference matrix; row/column order matches C-order flattening of
    the (n-1, n-1, n-1) interior array.
    """
    m = n - 1
    h2 = (1.0 / n) ** 2
    t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    eye = np.eye(m)
    a = (
        np.kron(np.kron(t, eye), eye)
        + np.kron(np.kron(eye, t), eye)
        + np.kron(np.kron(eye, eye), t)
    )
    return a / h2


# ---------------------------------------------------------------- oracles
# Reference forms the tests check the package's held-array readings against;
# no run calls them, so they live here rather than in src/spball.


def l2_inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete L2 pairing sum(u v) h^3."""
    u._check_same_grid(v)
    return float(np.sum(u.values * v.values)) * u.grid.h ** 3


def h1_inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete gradient pairing over all cell faces, zero boundary included.

    Forward differences on the zero-padded cube; equals <apply_laplacian(u), v> h^3
    exactly (summation by parts). The padding is never built: the interior
    faces are the differences of the unpadded arrays, and the two boundary
    faces per axis carry the first and last slabs themselves.
    """
    u._check_same_grid(v)
    a, b = u.values, v.values
    total = 0.0
    for axis in range(3):
        da = np.diff(a, axis=axis)
        db = da if b is a else np.diff(b, axis=axis)
        total += float(np.vdot(da, db))
        for end in (0, -1):
            total += float(np.vdot(a.take(end, axis), b.take(end, axis)))
    # (d/h)*(d/h) summed over faces, times the h^3 cell volume
    return total * u.grid.h


def grad_l2_norm(u: ScalarField) -> float:
    """Discrete H1 seminorm (L2 norm of the forward-difference gradient)."""
    return math.sqrt(max(h1_inner(u, u), 0.0))


def w2n_norm(u: ScalarField) -> float:
    """Constraint-ball norm: L3 norm of -Delta_h u.

    On the zero-boundary cube this is an equivalent second-order Sobolev
    (W^{2,3}) norm; N = 3 is the space dimension and is fixed.
    """
    return lp_norm(apply_laplacian(u), 3.0)


def equation_rhs(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """The right-hand side -c phi_u u + sign(u)|u|^p + f, in the order of
    operations the state forms it in, so that it gives the state's bits."""
    coupled = compute_phi(u, spec.coupling).values * spec.coupling.values * u.values
    return ScalarField(u.grid, (_signed_power(u.values, spec.p) - coupled) + spec.forcing.values)


def directional_derivative(s: FieldState, spec: ProblemSpec, v: ScalarField) -> float:
    """First variation of the energy at s.u in direction v: (grad u, grad v) - (rhs, v),
    with (grad u, grad v) = <-Delta_h u, v> h^3 by the stencil."""
    return l2_inner(apply_laplacian(s.u), v) - l2_inner(equation_rhs(s.u, spec), v)


def e1_field_sums(grid: DomainGrid, p: float) -> tuple[float, float, float, float]:
    """(||e1||_3, w = ||-Delta_h e1||_3, ||grad e1||^2, ||(|e1|/w)^p||_3) by
    passes over the cube: the stencil, its pairing with e1 and the power
    field, as the ball constants took them before the sums over one axis."""
    e1, _ = first_eigenpair(grid)
    lap = apply_laplacian(e1)
    w = lp_norm(lap, 3)
    grad_sq = float(np.vdot(lap.values, e1.values)) * grid.h ** 3
    power = ScalarField(grid, np.abs(e1.values / w) ** p)
    return lp_norm(e1, 3), w, grad_sq, lp_norm(power, 3)


RESIDUAL_BOUND_SLACK = 1e-10


def check_residual_bound(
    u: ScalarField, ball: BallSpec, spec: ProblemSpec
) -> tuple[float, float, bool]:
    """Check ||-c phi_u u + sign(u)|u|^p + f||_L3 against its ball bound.

    Returns (lhs, rhs, holds) with rhs = coupling_constant radius^3 +
    power_constant radius^p + ||f||_L3; `holds` allows a 1e-10 slack.
    """
    s = evaluate(u, spec)
    if not ball.contains(s.w2n):
        raise OutsideBallError(
            f"w2n norm {s.w2n:.6e} exceeds the ball radius {ball.radius:.6e}"
        )
    lhs = lp_norm(equation_rhs(u, spec), 3)
    rhs = (
        ball.coupling_constant * ball.radius**3
        + ball.power_constant * ball.radius**ball.p
        + spec.forcing_norm
    )
    return lhs, rhs, lhs <= rhs + RESIDUAL_BOUND_SLACK


# ---------------------------------------------------------------- helpers


def sample_function(grid: DomainGrid, fn) -> ScalarField:
    """fn(x, y, z) sampled on the interior nodes."""
    c = np.arange(1, grid.n) / grid.n
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    return ScalarField(grid, fn(x, y, z))


def random_field(grid: DomainGrid, rng: np.random.Generator, scale: float = 1.0) -> ScalarField:
    return ScalarField(grid, scale * rng.standard_normal(grid.shape))


def ball_samples(grid: DomainGrid, count: int, seed: int, radius: float) -> list[ScalarField]:
    """Random fields rescaled to random fractions of the constraint-ball radius."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    fields = smoothed_random_fields(grid, count, seed)
    # independent stream for the radial fractions
    frac_rng = np.random.default_rng([seed, 1])
    out = []
    for u in fields:
        w = w2n_norm(u)
        if w == 0.0:
            out.append(u)
            continue
        frac = float(frac_rng.uniform(0.05, 1.0))
        out.append((frac * radius / w) * u)
    return out


def run_cli(config: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `spball run` on config, with every
    warning an error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["run", "--config", path, "--out", f"{tmp}/out"])
    return code, out.getvalue(), err.getvalue()


def standard_problem(n=8, p=7.0, fraction=1.0):
    """(spec, ball, mode): constant coupling, sine-bump forcing scaled to a
    fraction of the bound, and the ball with the FirstMode estimate_constants
    hands to the descent."""
    from spball.grid import build_grid

    g = build_grid(n)
    coupling = ScalarField(g, np.ones(g.shape))
    bump, lam = first_eigenpair(g)
    ball, mode = estimate_constants(p, coupling)
    forcing = (fraction * ball.forcing_bound / lp_norm(bump, 3)) * bump
    spec = ProblemSpec(p=p, coupling=coupling, forcing=forcing)
    return spec, ball, mode


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def solve_counter(monkeypatch):
    """solve_counter(fn, *args, **kwargs) -> (fn's result, PoissonSolution objects
    built during the call), one per linear solve; guards against re-added solves."""

    def run(fn, *args, **kwargs):
        count = 0
        init = PoissonSolution.__init__

        def counting_init(self, *a, **k):
            nonlocal count
            count += 1
            init(self, *a, **k)

        with monkeypatch.context() as m:
            m.setattr(PoissonSolution, "__init__", counting_init)
            result = fn(*args, **kwargs)
        return result, count

    return run


# kernel name -> the module that defines it
KERNELS = {
    "neg_laplacian_array": grid_module,
    "_signed_power": energy_module,
}


@pytest.fixture
def kernel_counter(monkeypatch):
    """kernel_counter(fn, *args, **kwargs) -> (fn's result, Counter of calls to
    the kernels in KERNELS during the call); each kernel is counted wherever
    spball bound it, inside its own module too. Guards against re-added passes."""

    def run(fn, *args, **kwargs):
        counts = Counter()
        holders = [m for key, m in sys.modules.items() if key.split(".")[0] == "spball"]
        with monkeypatch.context() as m:
            for name, module in KERNELS.items():
                original = getattr(module, name)

                def counting(*a, _name=name, _original=original, **k):
                    counts[_name] += 1
                    return _original(*a, **k)

                for holder in holders:
                    if getattr(holder, name, None) is original:
                        m.setattr(holder, name, counting)
            result = fn(*args, **kwargs)
        return result, counts

    return run
