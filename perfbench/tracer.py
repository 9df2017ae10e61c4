"""In-process tracer for the spball layers, installed from outside the package.

The package's modules import functions by name (``from .poisson import
compute_phi``), so wrapping a function in its defining module alone misses
every call made through those imported names. ``install`` wraps each public
function of the traced modules and rebinds the wrapper in every ``spball``
module that holds the original object.

Spans are aggregated as they close: calls and inclusive time per function,
time per module counted at its outermost span, counts of each function under
each distinct ancestor, and time per (parent, child) edge. Poisson solves are
also counted by an independent hook on ``PoissonSolution`` construction, so a
call path the wrappers miss shows up as a mismatch.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("grid", "poisson", "sampling", "energy", "ball", "minimize", "verify", "runner")
# private functions worth their own span: the verifier's phi-bound calibration
EXTRA_FUNCTIONS = {"verify": ("_phi_bound_constant",)}

SOLVE = "poisson.solve_dirichlet_poisson"
FIELDS = "sampling.smoothed_random_fields"


class Tracer:
    def __init__(self):
        self.stack: list[str] = []  # names of the open spans, outermost first
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.module_time: defaultdict = defaultdict(float)
        self.module_depth: Counter = Counter()
        self.under: Counter = Counter()  # (ancestor, name) -> calls
        self.edge_calls: Counter = Counter()  # (parent, name) -> calls
        self.edge_time: defaultdict = defaultdict(float)
        self.cg_iters = 0
        self.unknown_iters = 0
        self.fields = 0
        self.solutions_built = 0

    def _record_result(self, name: str, result) -> None:
        if name == SOLVE:
            self.cg_iters += result.iterations
            self.unknown_iters += result.iterations * (result.field.grid.n - 1) ** 3
        elif name == FIELDS:
            self.fields += len(result)

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            for ancestor in set(self.stack):
                self.under[ancestor, name] += 1
            self.module_depth[module] += 1
            self.stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.module_depth[module] -= 1
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.edge_calls[parent, name] += 1
                self.edge_time[parent, name] += elapsed
                if self.module_depth[module] == 0:
                    self.module_time[module] += elapsed
            self._record_result(name, result)
            return result

        return traced

    def count_solutions(self, cls) -> None:
        """Count every PoissonSolution built, however the solve was reached."""
        original = cls.__init__

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            self.solutions_built += 1
            original(obj, *args, **kwargs)

        cls.__init__ = init


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and rebind them wherever spball imported them."""
    modules = {name: importlib.import_module(f"spball.{name}") for name in TRACED_MODULES}
    loaded = [m for key, m in sys.modules.items() if key == "spball" or key.startswith("spball.")]
    for short, module in modules.items():
        extra = EXTRA_FUNCTIONS.get(short, ())
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", obj)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, key, wrapped)
    tracer.count_solutions(modules["poisson"].PoissonSolution)


# Computed memory traffic of one CG iteration in poisson.solve_dirichlet_poisson,
# in float64 array passes (one read or write of an (n-1)^3 array), counted from
# its numpy expressions: the 7-point stencil 24 (pad 2, scale 2, six
# differences 18, divide 2), p.Ap 4, x update 5, r update 5, r.r 4, p update 5.
# Restart checks are left out.
ARRAY_PASSES_PER_CG_ITER = 47

STAGES = {
    "ball": "ball.estimate_constants",
    "minimize": "minimize.minimize",
    "verify": "verify.verify",
}
RUN = "runner.run_experiment"
WRITE = "runner.write_run_outputs"
PHI_CALIBRATION = "verify._phi_bound_constant"


def layer_metrics(t: Tracer, descent_iterations: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the tracer's self-check failures."""
    solves = t.calls[SOLVE]
    stage_solves = {stage: t.under[fn, SOLVE] for stage, fn in STAGES.items()}
    # the first energy evaluation in minimize is the start point; the rest are line search
    line_search = t.edge_calls[STAGES["minimize"], "energy.energy"] - 1
    outside = sum(t.edge_time[RUN, fn] for fn in (*STAGES.values(), WRITE))
    metrics = {
        "poisson.solves": solves,
        "poisson.phi_calls": t.calls["poisson.compute_phi"],
        "poisson.cg_iters": t.cg_iters,
        "poisson.iters_per_solve": t.cg_iters / max(solves, 1),
        "poisson.ms_per_solve": 1e3 * t.inclusive[SOLVE] / max(solves, 1),
        "poisson.solve_s": t.inclusive[SOLVE],
        "poisson.unknown_iters": t.unknown_iters,
        "poisson.bytes_computed": 8 * ARRAY_PASSES_PER_CG_ITER * t.unknown_iters,
        "ball.s": t.inclusive[STAGES["ball"]],
        "ball.solves": stage_solves["ball"],
        "sampling.fields": t.fields,
        "sampling.s": t.module_time["sampling"],
        "minimize.s": t.inclusive[STAGES["minimize"]],
        "minimize.solves": stage_solves["minimize"],
        "minimize.iterations": descent_iterations,
        "minimize.energy_evals": t.under[STAGES["minimize"], "energy.energy"],
        "minimize.backtracks": line_search - descent_iterations,
        "minimize.accept_ratio": descent_iterations / line_search if line_search > 0 else 0.0,
        "energy.evals": t.calls["energy.energy"],
        "energy.s": t.inclusive["energy.energy"],
        "energy.gradient_evals": t.calls["energy.gradient_field"],
        "energy.gradient_s": t.inclusive["energy.gradient_field"],
        "verify.s": t.inclusive[STAGES["verify"]],
        "verify.solves": stage_solves["verify"],
        "verify.phi_check_s": t.inclusive[PHI_CALIBRATION],
        "verify.phi_check_solves": t.under[PHI_CALIBRATION, SOLVE],
        "verify.vi_check_s": t.inclusive["verify.variational_inequality_check"],
        "verify.aux_s": t.inclusive["verify.auxiliary_solve"],
        "grid.w2n_norm.calls": t.calls["grid.w2n_norm"],
        "grid.w2n_norm.s": t.inclusive["grid.w2n_norm"],
        "grid.h1_inner.calls": t.calls["grid.h1_inner"],
        "grid.h1_inner.s": t.inclusive["grid.h1_inner"],
        "runner.self_s": t.inclusive[RUN] - outside,
        "runner.write_s": t.inclusive[WRITE],
    }
    problems = []
    if sum(stage_solves.values()) != solves:
        problems.append(f"stage solves {stage_solves} do not sum to poisson.solves={solves}")
    if t.solutions_built != solves:
        problems.append(
            f"{t.solutions_built} PoissonSolution objects built but {solves} solves traced"
        )
    if t.calls[RUN] != 1:
        problems.append(f"run_experiment traced {t.calls[RUN]} times, expected 1")
    return metrics, problems
