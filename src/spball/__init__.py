"""Ball-constrained variational solver for a Schrodinger-Poisson system.

Finite differences on the unit cube with zero Dirichlet data: a direct
sine-transform Poisson solver, the coupled energy functional, ball constants
from the first eigenfunction, Anderson-mixed Sobolev-gradient descent, and a
fixed-point verifier that certifies the minimizer as a discrete weak solution.
"""

from .ball import (
    BallSpec,
    FirstMode,
    admissible_radius,
    estimate_constants,
)
from .energy import (
    FieldState,
    ProblemSpec,
    evaluate,
    gradient_field,
)
from .errors import (
    AssumptionViolationError,
    BallOverflowError,
    ConfigError,
    ForcingTooLargeError,
    GridMismatchError,
    InvalidGridError,
    OutsideBallError,
)
from .grid import (
    DomainGrid,
    ScalarField,
    apply_laplacian,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from .minimize import MinimizeResult, initial_guess
from .poisson import PoissonSolution, compute_phi, solve_dirichlet_poisson
from .runner import (
    ExperimentConfig,
    SolveReport,
    StudyRow,
    convergence_study,
    load_config,
    load_report,
    manufactured_poisson_error,
    run_experiment,
    write_study_csv,
)
from .verify import (
    VerificationReport,
    fixed_point_residual,
    pde_residual,
    phi_property_check,
)
from .version import __version__

__all__ = [
    "AssumptionViolationError",
    "BallOverflowError",
    "BallSpec",
    "ConfigError",
    "DomainGrid",
    "ExperimentConfig",
    "FieldState",
    "FirstMode",
    "ForcingTooLargeError",
    "GridMismatchError",
    "InvalidGridError",
    "MinimizeResult",
    "OutsideBallError",
    "PoissonSolution",
    "ProblemSpec",
    "ScalarField",
    "SolveReport",
    "StudyRow",
    "VerificationReport",
    "admissible_radius",
    "apply_laplacian",
    "build_grid",
    "compute_phi",
    "convergence_study",
    "estimate_constants",
    "evaluate",
    "first_eigenpair",
    "fixed_point_residual",
    "gradient_field",
    "initial_guess",
    "load_config",
    "load_report",
    "lp_norm",
    "manufactured_poisson_error",
    "pde_residual",
    "phi_property_check",
    "run_experiment",
    "solve_dirichlet_poisson",
    "write_study_csv",
    "__version__",
]
