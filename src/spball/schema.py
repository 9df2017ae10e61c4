"""The records of config.json and report.json, and their strict readers.

ExperimentConfig is a validated config; SolveReport is everything a run
produced but the fields, one block of report.json per field. Each reader
takes exactly its record's keys and rejects any other value with a
ConfigError that names the block and the key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .ball import BallSpec
from .errors import ConfigError
from .verify import VerificationReport

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


_SUMMARY_KEYS = ("iterations", "stop_reason", "mixed_steps", "minimizer_w2n", "minimizer_l2")
# the ways minimize stops, which MinimizeResult's docstring defines
_STOP_REASONS = ("fixed_point", "no_decrease", "budget")
# the stages run_experiment times, in the order it times them
_WALL_TIME_KEYS = ("setup", "constants", "minimize", "verify", "total")


def _summary(data) -> dict:
    """The minimize_summary block as a plain dict: counts are integers >= 0,
    with mixed_steps <= iterations, stop_reason is one of _STOP_REASONS and
    the two norms are finite numbers >= 0."""
    summary = dict(_exact_keys("minimize_summary", data, _SUMMARY_KEYS))
    for key in ("iterations", "mixed_steps"):
        if not (_is_int(summary[key]) and summary[key] >= 0):
            raise ConfigError(f"minimize_summary.{key} must be an integer >= 0, "
                              f"got {summary[key]!r}")
    if summary["mixed_steps"] > summary["iterations"]:
        raise ConfigError(f"minimize_summary.mixed_steps {summary['mixed_steps']} exceeds "
                          f"iterations {summary['iterations']}")
    if summary["stop_reason"] not in _STOP_REASONS:
        raise ConfigError(f"minimize_summary.stop_reason must be one of {_STOP_REASONS}, "
                          f"got {summary['stop_reason']!r}")
    for key in ("minimizer_w2n", "minimizer_l2"):
        if _number(f"minimize_summary.{key}", summary[key]) < 0.0:
            raise ConfigError(f"minimize_summary.{key} must be >= 0, got {summary[key]!r}")
    return summary


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
        data["minimize_summary"] = _summary(data["minimize_summary"])
        data["verification"] = VerificationReport(
            **_exact_keys("verification", data["verification"], _names(VerificationReport)))
        data["wall_time"] = dict(_exact_keys("wall_time", data["wall_time"], _WALL_TIME_KEYS))
        for key, value in data["wall_time"].items():
            _number(f"wall_time.{key}", value)
        return cls(**data)
