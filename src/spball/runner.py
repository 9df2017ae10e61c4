"""Experiment pipeline: config -> constants -> radius -> descent -> verification.

Configs are plain JSON with a strict schema; reports serialize losslessly
(identical runs differ only in wall_time). The convergence study measures
the first eigenvalue's discretization error and runs the full pipeline over
a grid sequence.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .ball import BallSpec, FirstMode, estimate_constants
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
from .verify import VerificationReport, verify
from .version import __version__

_COUPLING_KINDS = ("constant", "sine_bump")
_FORCING_KINDS = ("constant", "sine_bump", "scaled_to_bound")


def _validate_field_spec(spec: dict, kinds: tuple[str, ...], label: str) -> None:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"{label} must be an object with exactly one key from {kinds}")
    (kind, value), = spec.items()
    if kind not in kinds:
        raise ConfigError(f"unknown {label} kind {kind!r}; expected one of {kinds}")
    value = _number(f"{label}.{kind}", value)
    if kind == "constant" and label == "coupling":
        if value < 0.0:
            raise ConfigError("coupling constant must be nonnegative")
    elif kind == "scaled_to_bound":
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"scaled_to_bound fraction must lie in (0, 1], got {value}")
    elif label == "forcing":
        if value == 0.0:
            raise ConfigError(f"forcing.{kind} must be nonzero")
    elif value <= 0.0:
        raise ConfigError(f"{label}.{kind} must be positive, got {value}")


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false in a config is a mistake
    return isinstance(value, int) and not isinstance(value, bool)


def _number(label: str, value) -> float:
    """value as a float, if it is a JSON number that float() converts to a
    finite value, else a ConfigError naming label: a string such as "7" is no
    number, and Infinity, NaN or an integer past the float range no finite one."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    return number


def _exact_keys(label: str, data, required, optional=()) -> dict:
    """data, if it is an object with every required key and no key but those
    and the optional ones; else a ConfigError naming the block and its first
    missing key, or every unexpected one."""
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be an object, got {data!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{label} has a missing key {key!r}")
    unexpected = [repr(key) for key in data if key not in required and key not in optional]
    if len(unexpected) == 1:
        raise ConfigError(f"{label} has an unexpected key {unexpected[0]}")
    if unexpected:
        raise ConfigError(f"{label} has unexpected keys {', '.join(unexpected)}")
    return data


def _names(record) -> tuple[str, ...]:
    return tuple(f.name for f in fields(record))


def _record(obj) -> dict:
    """A dataclass's JSON block: its fields by name, with a dict copied and a
    dataclass written by its to_dict, else as its own block. Shallow: unlike
    dataclasses.asdict, it copies no leaf."""
    data = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, dict):
            value = dict(value)
        elif is_dataclass(value):
            value = value.to_dict() if hasattr(value, "to_dict") else _record(value)
        data[f.name] = value
    return data


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema.
    Its fields are the config's keys, those without a default required."""

    grid_n: int
    p: float
    coupling: dict
    forcing: dict
    safety: float = 2.0
    # accepted and validated but select nothing: the ball constants come from
    # the first eigenfunction alone; both go in schema_version 3
    samples: int = 64
    seed: int = 0
    schema_version: int = 2

    def __post_init__(self):
        if self.schema_version == 1:
            raise ConfigError(
                "schema_version 1 is not supported: drop the tolerances section "
                "(tolerances.linear and tolerances.descent) and set schema_version to 2"
            )
        if self.schema_version != 2:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if not _is_int(self.grid_n) or self.grid_n < 3:
            raise ConfigError(f"grid_n must be an integer >= 3, got {self.grid_n}")
        if (self.grid_n - 1) ** 3 * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"grid_n={self.grid_n} is too large for an array of (n-1)^3 floats")
        for key in ("p", "safety"):
            object.__setattr__(self, key, _number(key, getattr(self, key)))
        if not self.p > 1.0:
            raise ConfigError(f"p must be a number > 1, got {self.p}")
        _validate_field_spec(self.coupling, _COUPLING_KINDS, "coupling")
        _validate_field_spec(self.forcing, _FORCING_KINDS, "forcing")
        if not self.safety >= 1.0:
            raise ConfigError(f"safety must be a number >= 1, got {self.safety}")
        if not (_is_int(self.samples) and self.samples >= 1):
            raise ConfigError(f"samples must be a positive integer, got {self.samples}")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return _record(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        required = tuple(f.name for f in fields(cls) if f.default is MISSING)
        return cls(**_exact_keys("config", data, required, _names(cls)))


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


@dataclass(frozen=True)
class SolveReport:
    """Everything a run produced, minus the raw field data; its fields are
    report.json's blocks."""

    config: ExperimentConfig
    ball: BallSpec
    energy: float
    minimize_summary: dict
    verification: VerificationReport
    wall_time: dict
    version: str

    def to_dict(self) -> dict:
        return _record(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        data = dict(_exact_keys("report", data, _names(cls)))
        _number("energy", data["energy"])
        if not isinstance(data["version"], str):
            raise ConfigError(f"version must be a string, got {data['version']!r}")
        data["config"] = ExperimentConfig.from_dict(data["config"])
        data["ball"] = BallSpec(**_exact_keys("ball", data["ball"], _names(BallSpec)))
        data["minimize_summary"] = dict(
            _exact_keys("minimize_summary", data["minimize_summary"], _SUMMARY_KEYS))
        data["verification"] = VerificationReport(
            **_exact_keys("verification", data["verification"], _names(VerificationReport)))
        data["wall_time"] = dict(_exact_keys("wall_time", data["wall_time"], _WALL_TIME_KEYS))
        for key, value in data["wall_time"].items():
            _number(f"wall_time.{key}", value)
        return cls(**data)


_SUMMARY_KEYS = ("iterations", "stop_reason", "mixed_steps", "minimizer_w2n", "minimizer_l2")


def _summarize(result: MinimizeResult) -> dict:
    values = (result.iterations, result.stop_reason, result.mixed_steps, result.state.w2n,
              lp_norm(result.minimizer, 2))
    return dict(zip(_SUMMARY_KEYS, values, strict=True))


# the stages run_experiment times, in the order it times them
_WALL_TIME_KEYS = ("setup", "constants", "minimize", "verify", "total")


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
