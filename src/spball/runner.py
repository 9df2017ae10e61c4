"""Experiment pipeline: config -> constants -> radius -> descent -> verification.

Configs and reports are plain JSON, read and written through the records of
spball.schema; reports serialize losslessly (identical runs differ only in
wall_time). The convergence study measures the first eigenvalue's
discretization error and runs the full pipeline over a grid sequence.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ball import FirstMode, estimate_constants
from .energy import ProblemSpec
from .errors import BallOverflowError, ConfigError
from .grid import (
    DomainGrid,
    ScalarField,
    build_grid,
    first_eigenpair,
    lp_norm,
)
from .minimize import MinimizeResult, minimize
from .poisson import solve_dirichlet_poisson
from .schema import _SUMMARY_KEYS, ExperimentConfig, SolveReport, _names
from .verify import verify
from .version import __version__


def _read_json(path: str | Path, what: str):
    """The JSON in a UTF-8 file; a failure to read or decode it is a ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    except ValueError:  # json's only other error: an integer past the digit limit
        raise ConfigError(f"{what} {path} holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """The config in a UTF-8 JSON file; any failure to read or decode it is a
    ConfigError naming the file."""
    return ExperimentConfig.from_dict(_read_json(path, "config file"))


def _build_coupling(grid: DomainGrid, spec: dict) -> ScalarField:
    (kind, value), = spec.items()
    if kind == "constant":
        return ScalarField.constant(grid, float(value))
    return float(value) * first_eigenpair(grid)[0]


def _build_forcing(grid: DomainGrid, spec: dict, forcing_bound: float,
                   mode: FirstMode) -> ScalarField:
    (kind, value), = spec.items()
    if kind == "constant":
        return ScalarField._own(grid, np.full(grid.shape, float(value)))
    if kind == "sine_bump":
        return float(value) * mode.e1
    return (float(value) * forcing_bound / mode.norm) * mode.e1


def _summarize(result: MinimizeResult) -> dict:
    values = (result.iterations, result.stop_reason, result.mixed_steps, result.state.w2n,
              lp_norm(result.minimizer, 2))
    return dict(zip(_SUMMARY_KEYS, values, strict=True))


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> SolveReport:
    """Run the full pipeline; given out_dir, write report.json and trace.csv there.

    out_dir is created before any stage runs, so a path that cannot be
    created raises its OSError before the work, not after it. Raises
    ForcingTooLargeError (from minimize), with the computed bound in the
    message, when an absolute forcing spec lands above the admissible bound.
    """
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    grid = build_grid(config.grid_n)
    coupling = _build_coupling(grid, config.coupling)
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        ball, mode = estimate_constants(config.p, coupling, config.safety)
    except BallOverflowError as exc:
        message = f"{exc}; set by config coupling {json.dumps(config.coupling)}"
        raise BallOverflowError(message) from None
    forcing = _build_forcing(grid, config.forcing, ball.forcing_bound, mode)
    spec = ProblemSpec(p=config.p, coupling=coupling, forcing=forcing)
    timings["constants"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # minimize gets the only reference to the FirstMode, so e1 and phi_e1
    # are freed once the initial guess has scaled them, not held through the
    # descent
    handover = [mode]
    del mode
    result = minimize(spec, ball, handover.pop())
    timings["minimize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report_v = verify(result.state, spec, ball)
    timings["verify"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    report = SolveReport(config=config, ball=ball, energy=result.energy,
                         minimize_summary=_summarize(result), verification=report_v,
                         wall_time=timings, version=__version__)
    if out_dir is not None:
        write_run_outputs(report, result, out_dir)
    return report


def write_run_outputs(report: SolveReport, result: MinimizeResult, out_dir: str | Path) -> None:
    """Write report.json and trace.csv into the existing directory out_dir,
    which run_experiment creates before its first stage."""
    out = Path(out_dir)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    with (out / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy", "step", "fixed_point_residual"])
        writer.writerows(result.trace)  # csv writes a float as its repr


def load_report(path: str | Path) -> SolveReport:
    """Read a report.json. Each block must hold exactly its record's keys,
    and its values must pass the record's own checks; anything else, another
    version's format included, raises a ConfigError naming the file and the
    block's first missing key, its unexpected keys or the rejected value;
    a file that cannot be read or decoded is a ConfigError naming it too."""
    data = _read_json(path, "report file")
    try:
        return SolveReport.from_dict(data)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{path} is not a spball {__version__} report: {exc}") from None


# ---------------------------------------------------------------- study


@dataclass(frozen=True)
class StudyRow:
    """Per-grid study outcome; error holds a message when the grid failed."""

    n: int
    poisson_rel_error: float | None = None
    observed_order: float | None = None
    energy: float | None = None
    pde_rel_residual: float | None = None
    error: str = ""


def manufactured_poisson_error(n: int) -> float:
    """Relative L2 error of the discrete solve of -Delta_h w = 3 pi^2 e1
    against e1 = sin(pi x) sin(pi y) sin(pi z), the continuum solution.

    e1 is an exact eigenvector of the 7-point operator, with eigenvalue
    lambda_h, so the solve returns (3 pi^2 / lambda_h) e1 and the error is
    |3 pi^2 / lambda_h - 1|: the first eigenvalue's discretization error,
    second order in h. It checks the solve on that one mode only.
    """
    grid = build_grid(n)
    star = first_eigenpair(grid)[0]
    f = ScalarField(grid, 3.0 * np.pi**2 * star.values)
    w = solve_dirichlet_poisson(f).field
    return lp_norm(w - star, 2) / lp_norm(star, 2)


def convergence_study(config: ExperimentConfig, grids: list[int]) -> list[StudyRow]:
    """Manufactured Poisson error plus the full pipeline on each grid.

    Grids must be strictly increasing. Per-grid failures are recorded in the
    row and the study continues; observed orders are computed between
    consecutive grids that both produced a Poisson error.
    """
    if not grids:
        raise ConfigError("study needs at least one grid")
    if any(not isinstance(n, int) or n < 3 for n in grids):
        raise ConfigError(f"grids must be integers >= 3, got {grids}")
    if any(b <= a for a, b in zip(grids, grids[1:])):
        raise ConfigError(f"grids must be strictly increasing, got {grids}")

    rows: list[StudyRow] = []
    prev: tuple[int, float] | None = None
    for n in grids:
        try:
            grid_config = replace(config, grid_n=n)
            poisson_err = manufactured_poisson_error(n)
            report = run_experiment(grid_config)
            order = None
            if prev is not None:
                order = math.log(prev[1] / poisson_err) / math.log(n / prev[0])
            rows.append(StudyRow(n=n, poisson_rel_error=poisson_err, observed_order=order,
                                 energy=report.energy,
                                 pde_rel_residual=report.verification.pde_rel_residual))
            prev = (n, poisson_err)
        except Exception as exc:  # recorded, study continues
            rows.append(StudyRow(n=n, error=str(exc)))
    return rows


def write_study_csv(rows: list[StudyRow], path: str | Path) -> None:
    """Write the rows to path, whose directory must exist."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = _names(StudyRow)
        writer.writerow(header)
        for row in rows:
            values = (getattr(row, name) for name in header)
            writer.writerow(["" if v is None else v for v in values])  # None as an empty cell
