"""Runner and CLI tests: config schema strictness, pipeline outputs, report
round-trips, determinism modulo wall time, the convergence study, and the
command-line interface including exit codes."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spball.cli as cli_mod
import spball.runner as runner_mod
import spball.schema as schema_mod
import spball.verify as verify_mod
from spball import ConfigError, ForcingTooLargeError
from spball.cli import main
from spball.verify import GATES
from spball.version import __version__
from spball.runner import (
    ExperimentConfig,
    convergence_study,
    load_config,
    load_report,
    manufactured_poisson_error,
    run_experiment,
    write_study_csv,
)


def small_config(**overrides):
    base = {
        "grid_n": 6,
        "p": 3.0,
        "coupling": {"constant": 1.0},
        "forcing": {"scaled_to_bound": 1.0},
        "samples": 8,
        "seed": 7,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------- config


def test_config_round_trip():
    cfg = small_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="config has an unexpected key 'extra'"):
        ExperimentConfig.from_dict({**small_config().to_dict(), "extra": 1})


def test_config_rejects_missing_keys():
    with pytest.raises(ConfigError, match="config has a missing key 'p'"):
        ExperimentConfig.from_dict({"grid_n": 6})


def test_config_field_spec_validation():
    with pytest.raises(ConfigError):
        small_config(coupling={"constant": -1.0})
    with pytest.raises(ConfigError):
        small_config(coupling={"mystery": 1.0})
    with pytest.raises(ConfigError):
        small_config(forcing={"scaled_to_bound": 0.0})
    with pytest.raises(ConfigError):
        small_config(forcing={"scaled_to_bound": 1.5})
    with pytest.raises(ConfigError):
        small_config(forcing={"constant": 1.0, "sine_bump": 1.0})
    # a literal forcing takes any sign but zero; the coupling stays nonnegative
    for kind in ("constant", "sine_bump"):
        assert small_config(forcing={kind: -0.5}).forcing == {kind: -0.5}
        with pytest.raises(ConfigError, match=f"forcing.{kind} must be nonzero"):
            small_config(forcing={kind: 0.0})
    with pytest.raises(ConfigError, match="must be positive"):
        small_config(coupling={"sine_bump": -1.0})
    with pytest.raises(ConfigError):
        small_config(grid_n=2)
    with pytest.raises(ConfigError):
        small_config(p=1.0)


@pytest.mark.parametrize("n, accepted", [(2**20, True), (2**20 + 1, False)])
def test_config_rejects_a_grid_no_array_can_hold(n, accepted):
    # at n - 1 = 2^20 a field's (n - 1)^3 floats take 2^63 bytes, past the
    # largest array size; the config is only built, no field of it
    if accepted:
        assert small_config(grid_n=n).grid_n == n
    else:
        with pytest.raises(ConfigError, match=f"^grid_n={n} "):
            small_config(grid_n=n)


def test_config_bad_tolerances():
    # 0.22.0 made the iteration budget a constant, and every key the
    # tolerances section held is gone, so the section is rejected by name
    for tolerances in ({"descent": {"max_iters": 5000}}, {"linear": {}}, {}):
        data = {**small_config().to_dict(), "tolerances": tolerances}
        with pytest.raises(ConfigError, match="^config has an unexpected key 'tolerances'$"):
            ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError, match="config has an unexpected key 'max_iters'"):
        ExperimentConfig.from_dict({**small_config().to_dict(), "max_iters": 5000})
    # a version 1 config is told to drop the section
    data = small_config().to_dict()
    data["schema_version"] = 1
    with pytest.raises(ConfigError, match="drop the tolerances section"):
        ExperimentConfig.from_dict(data)


def test_config_rejects_another_schema_version():
    with pytest.raises(ConfigError, match="^unsupported schema_version 3$"):
        small_config(schema_version=3)


def test_config_stores_p_and_safety_as_floats():
    # the constructor, which perfbench/worker.py calls, echoes what from_dict echoes
    cfg = ExperimentConfig(grid_n=8, p=7, coupling={"constant": 1.0},
                           forcing={"scaled_to_bound": 1.0}, safety=2)
    assert json.dumps(cfg.to_dict()["p"]) == "7.0"
    assert json.dumps(cfg.to_dict()["safety"]) == "2.0"
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("key", ["grid_n", "samples", "seed"])
@pytest.mark.parametrize("value", [True, False])
def test_config_rejects_bool_for_integer_fields(key, value):
    with pytest.raises(ConfigError, match=key):
        small_config(**{key: value})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


# ---------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = small_config()
    report = run_experiment(cfg, out_dir=out)
    return cfg, report, out


def test_run_experiment_passes_and_writes_outputs(small_run):
    cfg, report, out = small_run
    assert report.verification.passed
    assert report.energy < 0.0
    assert (out / "report.json").exists()
    assert (out / "trace.csv").exists()
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "iteration,energy,step,fixed_point_residual"
    assert len(trace_lines) == report.minimize_summary["iterations"] + 2
    # the report's energy and count are the last row's, bit for bit
    iteration, energy = trace_lines[-1].split(",")[:2]
    assert int(iteration) == report.minimize_summary["iterations"]
    assert float(energy) == report.energy


def test_run_experiment_report_contents(small_run):
    cfg, report, _ = small_run
    assert report.config == cfg
    assert "seeds" not in report.to_dict()
    assert set(report.to_dict()["ball"]) == {
        "coupling_constant", "power_constant", "potential_constant", "radius", "p",
    }
    assert report.version
    assert set(report.wall_time) == {"setup", "constants", "minimize", "verify", "total"}
    assert all(t >= 0.0 for t in report.wall_time.values())
    assert set(report.minimize_summary) == {
        "iterations", "stop_reason", "mixed_steps", "minimizer_w2n", "minimizer_l2",
    }
    assert report.minimize_summary["minimizer_l2"] > 0.0
    assert report.minimize_summary["minimizer_w2n"] <= report.ball.radius * (1 + 1e-12)


def test_report_json_round_trip(small_run):
    cfg, report, out = small_run
    loaded = load_report(out / "report.json")
    assert loaded == report


def test_load_report_rejects_another_versions_format(small_run, tmp_path):
    cfg, report, out = small_run
    # a report written while the ball carried the sampled family's settings
    old = report.to_dict()
    old["ball"].update(sample_count=64, seed=7)
    old["version"] = "0.1.0"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    with pytest.raises(ConfigError, match="sample_count") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)
    # a 0.2.0 report, written before the ball carried the potential constant
    old = report.to_dict()
    del old["ball"]["potential_constant"]
    old["version"] = "0.2.0"
    path.write_text(json.dumps(old))
    with pytest.raises(ConfigError, match="potential_constant"):
        load_report(path)
    # a 0.7.0 report, written while verify still ran the phi_scaling gate
    old = report.to_dict()
    old["verification"]["phi_scaling_ok"] = True
    old["version"] = "0.7.0"
    path.write_text(json.dumps(old))
    with pytest.raises(ConfigError, match="phi_scaling_ok"):
        load_report(path)
    # a 0.9.0 report, whose verification restated failed_checks as booleans
    old = report.to_dict()
    old["verification"].update(
        dict.fromkeys(("aux_in_ball", "phi_nonneg_ok", "phi_bound_ok"), True))
    old["version"] = "0.9.0"
    path.write_text(json.dumps(old))
    with pytest.raises(ConfigError, match="aux_in_ball"):
        load_report(path)
    # a 0.13.0 report, whose verification restated fp as vi_gap = -(fp * fp)
    # and echoed both thresholds; written with sorted keys, as the runner does
    old = report.to_dict()
    old["verification"].update(vi_gap=-1e-14, fp_threshold=1e-6, pde_threshold=1e-5)
    old["version"] = "0.13.0"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConfigError, match="verification has unexpected keys 'fp_threshold', "
                                          "'pde_threshold', 'vi_gap'"):
        load_report(path)
    # a 0.16.0 report, whose ball stored its forcing budget radius / 2
    old = report.to_dict()
    old["ball"]["forcing_bound"] = 0.5 * old["ball"]["radius"]
    old["version"] = "0.16.0"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConfigError, match="ball has an unexpected key 'forcing_bound'"):
        load_report(path)
    # a 0.18.0 report, whose summary carried the last step's H1 displacement
    old = report.to_dict()
    old["minimize_summary"]["final_displacement"] = 1e-7
    old["version"] = "0.18.0"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConfigError, match="minimize_summary has an unexpected key "
                                          "'final_displacement'") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)
    # a 0.19.0 report, whose summary restated the ball test of minimizer_w2n
    # and the last trace row's step
    old = report.to_dict()
    old["minimize_summary"].update(on_boundary=True, final_step=1.0)
    old["version"] = "0.19.0"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConfigError, match="minimize_summary has unexpected keys "
                                          "'final_step', 'on_boundary'") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)
    # a report with a section missing names that section
    data = report.to_dict()
    del data["verification"]
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="missing key 'verification'"):
        load_report(path)


@pytest.mark.parametrize("content", [
    None,
    b'{"energy": 1' + b"0" * 5000 + b"}",
    b'{"version": "\xff"}',
], ids=["missing", "integer-past-the-digit-limit", "not-utf8"])
def test_load_report_names_the_file_it_cannot_read(tmp_path, content):
    # a missing report raised a raw FileNotFoundError, and the digit limit's
    # ValueError advised sys.set_int_max_str_digits()
    path = tmp_path / "report.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as excinfo:
        load_report(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert "set_int_max_str_digits" not in message


def test_load_report_checks_the_minimize_summary_keys(small_run, tmp_path):
    cfg, report, out = small_run
    path = tmp_path / "report.json"
    # a foreign summary: two keys that restated stop_reason and iterations in 0.9.0
    old = report.to_dict()
    old["minimize_summary"] = {"converged": True, "trace_rows": 2}
    path.write_text(json.dumps(old))
    with pytest.raises(ConfigError, match="missing key 'iterations'") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)
    data = report.to_dict()
    data["minimize_summary"]["converged"] = True
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="unexpected key 'converged'"):
        load_report(path)
    # the summary stays a plain dict, read by key
    assert load_report(out / "report.json").minimize_summary == report.minimize_summary


def test_load_report_rejects_a_0_22_report(small_run, tmp_path):
    # 0.22.0 echoed the output directory as config.output_path, which is named
    cfg, report, out = small_run
    old = report.to_dict()
    assert "output_path" not in old["config"]
    old["config"]["output_path"] = str(out)
    old["version"] = "0.22.0"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConfigError, match="config has an unexpected key 'output_path'") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("block, key, value", [
    ("config", "tolerances", {"descent": {"max_iters": 5000}}),
    ("verification", "passed", True),
])
def test_load_report_rejects_a_0_21_report(small_run, tmp_path, block, key, value):
    # 0.21.0 echoed the iteration budget as config.tolerances and stored
    # verification.passed beside failed_checks; each is named
    cfg, report, out = small_run
    old = report.to_dict()
    assert key not in old[block]
    old[block][key] = value
    old["version"] = "0.21.0"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConfigError, match=f"{block} has an unexpected key '{key}'") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


def test_load_report_rejects_a_ball_that_ball_spec_rejects(small_run, tmp_path):
    cfg, report, out = small_run
    data = report.to_dict()
    data["ball"]["radius"] = -1.0
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="radius must be positive") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


def test_load_report_rejects_a_ball_with_p_at_most_one(small_run, tmp_path):
    # BallSpec's own check, which no run reaches: a run's p passed the config's
    cfg, report, out = small_run
    data = report.to_dict()
    data["ball"]["p"] = 1.0
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="p must exceed 1, got 1.0") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


def test_load_report_rejects_a_tiny_ball_that_fails_the_inequality(small_run, tmp_path):
    # radius 1e-14 with coupling_constant r^3 200 times r / 2
    cfg, report, out = small_run
    data = report.to_dict()
    data["ball"].update(coupling_constant=1e30, power_constant=1.0, radius=1e-14)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="ball radius 1.000000e-14 fails") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


def test_load_report_rejects_an_unknown_top_level_key(small_run, tmp_path):
    # a 0.9.0 report carried converged beside the blocks
    cfg, report, out = small_run
    data = report.to_dict()
    data["converged"] = True
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="unexpected key 'converged'") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


# block -> (its place in report.json, a key it must hold, a key it must not)
REPORT_BLOCKS = {
    "report": ((), "energy", "converged"),
    "config": (("config",), "grid_n", "extra"),
    "ball": (("ball",), "radius", "sample_count"),
    "verification": (("verification",), "failed_checks", "phi_scaling_ok"),
    "minimize_summary": (("minimize_summary",), "iterations", "converged"),
    "wall_time": (("wall_time",), "total", "write"),
}


@pytest.mark.parametrize("change", ["missing", "unexpected"])
@pytest.mark.parametrize("block", list(REPORT_BLOCKS))
def test_load_report_names_the_block_and_its_key(small_run, tmp_path, block, change):
    # every block holds exactly its record's keys
    cfg, report, out = small_run
    place, required, foreign = REPORT_BLOCKS[block]
    data = report.to_dict()
    target = data
    for key in place:
        target = target[key]
    if change == "missing":
        del target[required]
        expected = f"{block} has a missing key {required!r}"
    else:
        target[foreign] = 0
        expected = f"{block} has an unexpected key {foreign!r}"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as excinfo:
        load_report(path)
    assert str(excinfo.value).startswith(f"{path} is not a spball {__version__} report")
    assert expected in str(excinfo.value)


@pytest.mark.parametrize("wall_time", [
    ["setup", "constants", "minimize", "verify", "total"],
    {"bogus": "x"},
    {"setup": 0.1, "constants": 0.1, "minimize": 0.1, "verify": 0.1},
    {"setup": 0.1, "constants": 0.1, "minimize": 0.1, "verify": 0.1, "total": 0.4, "write": 0.1},
    {"setup": 0.1, "constants": 0.1, "minimize": 0.1, "verify": 0.1, "total": "0.4"},
    {"setup": 0.1, "constants": 0.1, "minimize": 0.1, "verify": 0.1, "total": None},
    {"setup": 0.1, "constants": 0.1, "minimize": 0.1, "verify": 0.1, "total": float("nan")},
    {"setup": 0.1, "constants": 0.1, "minimize": 0.1, "verify": True, "total": 0.4},
])
def test_load_report_checks_the_wall_time(small_run, tmp_path, wall_time):
    # the five stages run_experiment times, each a finite number of seconds
    cfg, report, out = small_run
    data = report.to_dict()
    data["wall_time"] = wall_time
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="wall_time") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)
    assert set(load_report(out / "report.json").wall_time) == {
        "setup", "constants", "minimize", "verify", "total"}


@pytest.mark.parametrize("version", [12, None, ["0.12.0"]])
def test_load_report_checks_the_version_is_a_string(small_run, tmp_path, version):
    cfg, report, out = small_run
    data = report.to_dict()
    data["version"] = version
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="version must be a string") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("energy", ["abc", None, True, [-1.0]])
def test_load_report_checks_the_energy_is_a_number(small_run, tmp_path, energy):
    cfg, report, out = small_run
    data = report.to_dict()
    data["energy"] = energy
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="energy must be a number") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("verdict", [
    {"failed_checks": ["bogus"]},
    {"failed_checks": ["pde", "fixed_point"]},
    {"failed_checks": ["pde", "pde"]},
])
def test_load_report_checks_the_verdict(small_run, tmp_path, verdict):
    # perfbench/run.py counts a repetition as verified on passed, which is
    # read from failed_checks: its names must be gates, in gate order
    cfg, report, out = small_run
    data = report.to_dict()
    data["verification"].update(verdict)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="failed_checks must name") as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("change, message", [
    ({"fixed_point_rel_residual": "tiny"}, "fixed_point_rel_residual must be a number >= 0"),
    ({"fixed_point_rel_residual": None}, "fixed_point_rel_residual must be a number >= 0"),
    ({"fixed_point_rel_residual": True}, "fixed_point_rel_residual must be a number >= 0"),
    ({"fixed_point_rel_residual": float("nan")}, "fixed_point_rel_residual must be a number"),
    ({"pde_rel_residual": -1e-9}, "pde_rel_residual must be a number >= 0"),
    ({"pde_rel_residual": [0.0]}, "pde_rel_residual must be a number >= 0"),
    ({"fixed_point_rel_residual": 1.0}, "fixed_point_rel_residual 1.0 fails its gate, "
                                        "but failed_checks omits fixed_point"),
    ({"pde_rel_residual": float("inf")}, "pde_rel_residual inf fails its gate"),
    ({"failed_checks": ["fixed_point"]}, "passes its gate, but failed_checks names fixed_point"),
    ({"failed_checks": ["pde", "phi_bound"]}, "pde_rel_residual .* passes its gate"),
])
def test_load_report_checks_the_residuals_and_their_verdict(small_run, tmp_path, change, message):
    # each edit once loaded as a passed run: a residual is a number >= 0,
    # and the fixed_point and pde gates fail exactly when their residuals do
    cfg, report, out = small_run
    assert report.verification.passed
    data = report.to_dict()
    data["verification"].update(change)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=message) as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("change, message", [
    ({"iterations": "many"}, "minimize_summary.iterations must be an integer >= 0"),
    ({"iterations": -1}, "minimize_summary.iterations must be an integer >= 0"),
    ({"iterations": 2.0}, "minimize_summary.iterations must be an integer >= 0"),
    ({"mixed_steps": True}, "minimize_summary.mixed_steps must be an integer >= 0"),
    ({"mixed_steps": 10**6}, "minimize_summary.mixed_steps 1000000 exceeds iterations"),
    ({"stop_reason": "gave_up"}, "minimize_summary.stop_reason must be one of"),
    ({"stop_reason": None}, "minimize_summary.stop_reason must be one of"),
    ({"minimizer_w2n": float("inf")}, "minimize_summary.minimizer_w2n must be a finite number"),
    ({"minimizer_w2n": "1.0"}, "minimize_summary.minimizer_w2n must be a number"),
    ({"minimizer_l2": -1.0}, "minimize_summary.minimizer_l2 must be >= 0"),
])
def test_load_report_checks_the_minimize_summary_values(small_run, tmp_path, change, message):
    cfg, report, out = small_run
    data = report.to_dict()
    data["minimize_summary"].update(change)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=message) as excinfo:
        load_report(path)
    assert str(path) in str(excinfo.value)


def test_load_report_reads_an_infinite_residual(tmp_path):
    # the forcing is too small to move the start u = 0, so the run ends
    # there and its fixed-point residual, ||grad g|| / ||grad u||, is inf
    cfg = ExperimentConfig.from_dict({"grid_n": 8, "p": 7, "coupling": {"constant": 1},
                                      "forcing": {"constant": 1e-200}})
    report = run_experiment(cfg, out_dir=tmp_path)
    assert "Infinity" in (tmp_path / "report.json").read_text()
    loaded = load_report(tmp_path / "report.json")
    assert loaded == report
    assert loaded.verification.fixed_point_rel_residual == math.inf
    assert "fixed_point" in loaded.verification.failed_checks


def test_the_records_keep_the_benchmark_entry_points():
    # perfbench/worker.py, perfbench/run.py and the tracer reach these
    # through spball.runner; the tracer wraps only functions defined there
    for name in ("ExperimentConfig", "SolveReport", "load_config", "load_report",
                 "run_experiment", "write_run_outputs"):
        assert hasattr(runner_mod, name), name
    for fn in (runner_mod.run_experiment, runner_mod.write_run_outputs):
        assert fn.__module__ == "spball.runner"
    tree = ast.parse(Path(schema_mod.__file__).read_text())
    # every module path and name an import statement spells, as in
    # "from .runner import x", "from . import runner" or "import spball.runner"
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None) or "")
    assert not any(name.split(".")[-1] == "runner" for name in imported), imported


def test_run_experiment_deterministic_modulo_wall_time(small_run, tmp_path):
    cfg, report, _ = small_run
    again = run_experiment(cfg, out_dir=tmp_path / "again")
    a, b = report.to_dict(), again.to_dict()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_samples_and_seed_select_nothing(tmp_path):
    # both stay in the schema, but the ball constants come from the
    # eigenfunction alone: the outputs match byte for byte outside the
    # config echo and the wall times
    outputs = []
    for samples, seed in ((1, 3), (64, 41)):
        out = tmp_path / f"samples{samples}-seed{seed}"
        cfg = small_config(grid_n=8, p=7.0, forcing={"scaled_to_bound": 0.5},
                           samples=samples, seed=seed)
        run_experiment(cfg, out_dir=out)
        text = (out / "report.json").read_text()
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        config = data.pop("config")
        assert (config["samples"], config["seed"]) == (samples, seed)
        del data["wall_time"], config["samples"], config["seed"]
        outputs.append((json.dumps(data, indent=2, sort_keys=True), config,
                        (out / "trace.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_forcing_budget_is_half_the_radius(small_run):
    # the budget is derived, not stored: bit for bit half the radius, on the
    # run's ball and on the ball its report.json reads back
    cfg, report, out = small_run
    loaded = load_report(out / "report.json")
    for ball in (report.ball, loaded.ball):
        assert ball.forcing_bound == 0.5 * ball.radius
    assert loaded.ball == report.ball


def test_a_run_without_out_dir_writes_nothing(tmp_path, monkeypatch):
    # out_dir alone decides whether outputs are written: the default
    # directory `out` is the CLI's, not the library's
    monkeypatch.chdir(tmp_path)
    report = run_experiment(small_config())
    assert report.verification.passed
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_forcing_too_large():
    cfg = small_config(forcing={"constant": 50.0})
    with pytest.raises(ForcingTooLargeError) as excinfo:
        run_experiment(cfg)
    assert excinfo.value.bound > 0.0
    assert "admissible bound" in str(excinfo.value)


def test_run_experiment_absolute_forcing_below_bound():
    # a minuscule constant forcing stays under any reasonable bound
    cfg = small_config(forcing={"constant": 1e-4}, samples=4)
    report = run_experiment(cfg)
    assert report.energy < 0.0


# ---------------------------------------------------------------- study


def test_manufactured_poisson_error_second_order():
    e8 = manufactured_poisson_error(8)
    e16 = manufactured_poisson_error(16)
    assert 3.5 <= e8 / e16 <= 4.5


def test_convergence_study_single_grid_has_empty_order():
    rows = convergence_study(small_config(samples=4), [6])
    assert len(rows) == 1
    assert rows[0].observed_order is None
    assert rows[0].error == ""
    assert rows[0].poisson_rel_error > 0.0


def test_convergence_study_two_grids_order_near_two():
    rows = convergence_study(small_config(samples=4), [6, 12])
    assert rows[1].observed_order == pytest.approx(2.0, abs=0.2)
    assert all(row.error == "" for row in rows)


def test_convergence_study_validates_grids():
    cfg = small_config()
    for grids in ([], [2, 4], [8, 8], [16, 8]):
        with pytest.raises(ConfigError):
            convergence_study(cfg, grids)


def test_convergence_study_records_failures_and_continues(monkeypatch):
    cfg = small_config(samples=4)
    real = runner_mod.manufactured_poisson_error

    def flaky(n):
        if n == 8:
            raise RuntimeError("synthetic failure")
        return real(n)

    monkeypatch.setattr(runner_mod, "manufactured_poisson_error", flaky)
    rows = runner_mod.convergence_study(cfg, [6, 8, 12])
    assert rows[0].error == ""
    assert rows[1].error == "synthetic failure"
    assert rows[2].error == ""
    # the order after a failed grid is computed against the last good one
    assert rows[2].observed_order == pytest.approx(2.0, abs=0.2)


def test_convergence_study_names_a_grid_the_config_refuses(monkeypatch):
    # the grid's config is built first, so a grid no array can hold fails
    # with the config's named error before any field of it is formed
    real = runner_mod.manufactured_poisson_error

    def guarded(n):
        assert n < 1000, f"manufactured_poisson_error ran on grid_n={n}"
        return real(n)

    monkeypatch.setattr(runner_mod, "manufactured_poisson_error", guarded)
    rows = runner_mod.convergence_study(small_config(samples=4), [6, 10_000_000])
    assert rows[0].error == ""
    assert rows[1].error.startswith("grid_n=10000000 is too large"), rows[1].error


def test_write_study_csv_empty_cells(tmp_path):
    rows = convergence_study(small_config(samples=4), [6])
    path = tmp_path / "study.csv"
    write_study_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,poisson_rel_error,observed_order,energy,pde_rel_residual,error"
    assert lines[1].split(",")[2] == ""  # empty order column


# ---------------------------------------------------------------- cli


def write_config(tmp_path, **overrides):
    cfg = small_config(**overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_cli_run_success(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "verification PASSED" in captured.out
    report = load_report(tmp_path / "out" / "report.json")
    assert report.minimize_summary["stop_reason"] == "fixed_point"
    iterations = report.minimize_summary["iterations"]
    assert f"iterations={iterations}  stop_reason=fixed_point\n" in captured.out
    assert report.minimize_summary["mixed_steps"] >= 0
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_has_no_seed_option(tmp_path, capsys):
    # the seed selects nothing, so neither subcommand offers it (a usage
    # error, exit 2) and `run` does not print it; the config key stays
    path = write_config(tmp_path)
    for argv in (["run", "--config", str(path)],
                 ["study", "--config", str(path), "--grids", "6"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(tmp_path / "a"), "--seed", "99"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err
    out = tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "grid n=6  p=3.0"
    # the report echoes the config as written, seed included
    report = load_report(out / "report.json")
    assert report.config == load_config(path)
    assert report.config.seed == 7


def test_cli_run_failure_exit_codes(tmp_path, capsys):
    # forcing beyond the bound is a data error: exit 2 with the bound shown
    path = write_config(tmp_path, forcing={"constant": 50.0})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "admissible bound" in captured.err
    # a schema_version 1 config is a configuration error
    data = json.loads(write_config(tmp_path).read_text())
    data["schema_version"] = 1
    path.write_text(json.dumps(data))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "tolerances.linear" in capsys.readouterr().err
    # a malformed number, a numeric string included, is a configuration error that names its key
    for key, value in (("p", [7]), ("p", "abc"), ("safety", None), ("p", "7"), ("safety", "2")):
        data = json.loads(write_config(tmp_path).read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must be a number" in capsys.readouterr().err
    # a field-spec value must be a JSON number too; a bool or a numeric string is not
    for key, spec in (("coupling", {"constant": True}), ("coupling", {"constant": "1e3"}),
                      ("forcing", {"scaled_to_bound": "0.5"})):
        data = json.loads(write_config(tmp_path).read_text())
        data[key] = spec
        path.write_text(json.dumps(data))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        (kind,) = spec
        assert f"{key}.{kind} must be a number" in capsys.readouterr().err
    # the old stop rule's and line search's descent keys and the budget are
    # rejected by name, at the top level and in the tolerances section
    for key, value in (("grad_tol", 1e-8), ("energy_tol", 1e-12), ("backtrack_factor", 0.5),
                       ("initial_step", 1.0), ("max_iters", 5000)):
        for place, named in ((None, key), ("tolerances", "tolerances")):
            data = json.loads(write_config(tmp_path).read_text())
            if place is None:
                data[key] = value
            else:
                data[place] = {"descent": {key: value}}
            path.write_text(json.dumps(data))
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
            assert code == 2
            assert f"config has an unexpected key {named!r}" in capsys.readouterr().err
    # an infinite safety (json reads Infinity) is rejected under its own name
    data = json.loads(write_config(tmp_path).read_text())
    data["safety"] = math.inf
    path.write_text(json.dumps(data))
    assert "Infinity" in path.read_text()
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "safety must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [10**400, -(10**400), math.inf, -math.inf, math.nan],
                         ids=["huge-int", "minus-huge-int", "inf", "minus-inf", "nan"])
@pytest.mark.parametrize("key, kind", [("p", None), ("safety", None), ("coupling", "constant"),
                                       ("coupling", "sine_bump"), ("forcing", "constant"),
                                       ("forcing", "scaled_to_bound")])
def test_cli_run_rejects_a_number_that_is_not_a_finite_float(tmp_path, capsys, key, kind, value):
    # a JSON integer past the float range once escaped main as an OverflowError;
    # json reads Infinity and NaN, which are numbers but not finite ones
    data = json.loads(write_config(tmp_path).read_text())
    data[key] = value if kind is None else {kind: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    label = key if kind is None else f"{key}.{kind}"
    assert line.startswith(f"error: {label} must be a finite number, got ")


@pytest.mark.parametrize("content", [
    b'{"grid_n": 8, "p": 1' + b"0" * 5000 + b"}",
    b'{"grid_n": 8, "p": 7, "note": "\xff"}',
], ids=["integer-past-the-digit-limit", "not-utf8"])
def test_cli_run_names_the_config_file_it_cannot_decode(tmp_path, capsys, content):
    # json raised a plain ValueError that advised sys.set_int_max_str_digits()
    # for the first and a UnicodeDecodeError that named no file for the second
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert "set_int_max_str_digits" not in line


def test_cli_run_reports_a_grid_too_large_for_memory(tmp_path, capsys):
    # a field at n = 10^7 holds 10^21 floats, more than any array can index,
    # so the config refuses it before any array is made; a run's first array
    # once escaped as a raw MemoryError here
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid_n": 10_000_000, "p": 7, "coupling": {"constant": 1},
                                "forcing": {"scaled_to_bound": 0.5}}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: grid_n=10000000 ")


def test_cli_run_reports_a_memory_error_as_one_line(tmp_path, capsys, monkeypatch):
    # a grid the config accepts can still need more memory than is available
    def out_of_memory(config, out_dir):
        raise MemoryError

    monkeypatch.setattr("spball.cli.run_experiment", out_of_memory)
    code = main(["run", "--config", str(write_config(tmp_path, grid_n=8)),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: grid_n=8 ") and "memory" in line


def _signed(low: float, high: float):
    """Floats of both signs whose magnitude lies in [low, high]."""
    magnitude = st.floats(low, high)
    return st.one_of(magnitude, magnitude.map(lambda x: -x))


# numbers a config field rarely holds: any sign and size, zero and the
# subnormals, the non-finite floats json reads, and integers past the float range
_ODD = st.one_of(
    _signed(0.0, 1e300),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(2**1024, 10**400).flatmap(lambda n: st.sampled_from([n, -n])),
)


def _mostly(common):
    """common in about seven draws of eight, else an odd number."""
    return st.integers(0, 7).flatmap(lambda i: common if i else _ODD)


def _spec(kinds, values):
    return st.builds(lambda kind, value: {kind: value}, st.sampled_from(kinds), _mostly(values))


_CONFIGS = st.fixed_dictionaries(
    {
        "grid_n": st.integers(3, 6),
        "p": _mostly(st.one_of(st.floats(1.0 + 1e-12, 1e4), st.integers(2, 10**4))),
        "coupling": _spec(["constant", "sine_bump"], st.floats(0.0, 1e150)),
        "forcing": st.one_of(_spec(["constant", "sine_bump"], _signed(1e-300, 1e300)),
                             _spec(["scaled_to_bound"], st.floats(0.0, 1.0))),
    },
    optional={"safety": _mostly(st.floats(1.0, 1e3))},
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_CONFIGS)
def test_cli_run_ends_every_config_in_a_named_outcome(tmp_path, capsys, config):
    # every config of the schema verifies (0), fails named gates (1) or is
    # rejected with one error line (2); nothing escapes main, and a silent
    # overflow would raise here as a RuntimeWarning
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    if code == 2:
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        return
    assert code in (0, 1) and captured.err == ""
    verdict = captured.out.splitlines()[-1]
    if code == 0:
        assert verdict == "verification PASSED"
    else:
        prefix = "verification FAILED: "
        assert verdict.startswith(prefix)
        failed = verdict[len(prefix):].split(", ")
        assert failed == [gate for gate in GATES if gate in failed] != []


def test_cli_run_names_the_failed_checks(tmp_path, capsys, monkeypatch):
    # an unreachable fixed-point threshold fails exactly that gate; verify and
    # the descent's stop test read it at call time, so the descent never
    # stops on fixed_point
    monkeypatch.setattr(verify_mod, "FP_THRESHOLD", 1e-30)
    path = write_config(tmp_path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "verification FAILED: fixed_point\n" in capsys.readouterr().out
    report = load_report(tmp_path / "out" / "report.json")
    assert report.verification.failed_checks == ("fixed_point",)


def test_cli_run_huge_exponent_verifies(tmp_path, capsys):
    # p=400 once overflowed w**p in the constant estimate and escaped as a traceback
    path = write_config(
        tmp_path,
        p=400,
        coupling={"constant": 1},
        forcing={"scaled_to_bound": 0.5},
        samples=4,
        seed=0,
    )
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "verification PASSED" in capsys.readouterr().out


def test_cli_run_subnormal_coupling_verifies(tmp_path, capsys):
    # the potential of this coupling is subnormal; the descent stops on
    # fixed_point, and verify once rejected the run for a relative test of
    # phi_{2u} = 4 phi_u that subnormal rounding cannot meet
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid_n": 8, "p": 3, "coupling": {"constant": 1e-315},
                                "forcing": {"scaled_to_bound": 0.5}}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "verification PASSED" in capsys.readouterr().out
    report = load_report(tmp_path / "out" / "report.json")
    assert report.minimize_summary["stop_reason"] == "fixed_point"
    assert report.verification.failed_checks == ()


def test_cli_run_names_the_overflowing_ball_product(tmp_path, capsys):
    # c phi_e1 e1 overflows at this coupling: a typed data error, exit 2, that
    # names the product and the config value, with no numpy warning on the way
    path = write_config(tmp_path, grid_n=8, p=7.0, coupling={"constant": 1e300},
                        forcing={"scaled_to_bound": 0.5})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "c·φ_e1·e1" in err
    assert '{"constant": 1e+300}' in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_run_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_study(tmp_path, capsys):
    path = write_config(tmp_path, samples=4)
    code = main(
        ["study", "--config", str(path), "--grids", "6,12", "--out", str(tmp_path / "study")]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert (tmp_path / "study" / "study.csv").exists()
    assert "study written" in captured.out


@pytest.mark.parametrize("command", ["run", "study"])
def test_cli_names_an_output_path_it_cannot_create(tmp_path, capsys, monkeypatch, command):
    # an --out below a regular file (run's NotADirectoryError) or naming one
    # (study's FileExistsError) is a data error: exit 2 with one line naming
    # the path, not a traceback, and before any stage of the run or study
    stages = []

    def recorded(name):
        stage = getattr(runner_mod, name)

        def recording(*args):
            stages.append(name)
            return stage(*args)
        return recording

    for name in ("estimate_constants", "manufactured_poisson_error"):
        monkeypatch.setattr(runner_mod, name, recorded(name))
    path = write_config(tmp_path)
    blocker = tmp_path / "F"
    blocker.write_text("")
    argv, out = {"run": (["run"], blocker / "sub"),
                 "study": (["study", "--grids", "6"], blocker)}[command]
    code = main([*argv, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write outputs to {out}: ")
    assert err.count("\n") == 1
    assert stages == []
    # the same command with a path it can create runs every stage
    code = main([*argv, "--config", str(path), "--out", str(tmp_path / "ok")])
    assert code == 0, capsys.readouterr()
    assert set(stages) == {"run": {"estimate_constants"},
                           "study": {"estimate_constants", "manufactured_poisson_error"}}[command]


def test_cli_run_rejects_the_tolerances_section(tmp_path, capsys):
    # the iteration budget is a constant since 0.22.0: a config that still
    # sets tolerances.descent.max_iters exits 2 with one line naming the section
    data = json.loads(write_config(tmp_path).read_text())
    data["tolerances"] = {"descent": {"max_iters": 50}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: config has an unexpected key 'tolerances'\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_an_output_path_key(tmp_path, capsys):
    # --out alone says where a run writes since 0.23.0: a config that still
    # has output_path exits 2 with one line naming the key
    data = json.loads(write_config(tmp_path).read_text())
    data["output_path"] = str(tmp_path / "elsewhere")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: config has an unexpected key 'output_path'\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_cli_rejects_an_empty_out(tmp_path, capsys):
    # an empty --out names no directory: exit 2 with one error line, on
    # either command, before anything is written
    path = write_config(tmp_path)
    for argv in (["run"], ["study", "--grids", "6"]):
        code = main([*argv, "--config", str(path), "--out", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --out must be a nonempty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_run_writes_the_same_report_to_any_out(tmp_path, monkeypatch):
    # where a run writes is not part of what it reports: the default `out`
    # and another --out hold equal reports, wall time aside, and
    # byte-identical traces
    path = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    reports, traces = [], []
    for out in (tmp_path / "out", tmp_path / "b"):
        report = json.loads((out / "report.json").read_text())
        del report["wall_time"]
        reports.append(report)
        traces.append((out / "trace.csv").read_bytes())
    assert reports[0] == reports[1]
    assert traces[0] == traces[1]


def test_cli_lets_an_internal_fault_propagate(tmp_path, capsys, monkeypatch):
    # exit 2 means bad input; a fault of the program, here a RuntimeError,
    # is not reported as one
    def faulty(config, out_dir=None):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli_mod, "run_experiment", faulty)
    path = write_config(tmp_path)
    with pytest.raises(RuntimeError, match="^internal fault$"):
        main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""


def test_cli_study_prints_a_failed_row_and_exits_1(tmp_path, capsys, monkeypatch):
    real = runner_mod.manufactured_poisson_error

    def flaky(n):
        if n == 8:
            raise RuntimeError("synthetic failure")
        return real(n)

    monkeypatch.setattr(runner_mod, "manufactured_poisson_error", flaky)
    path = write_config(tmp_path, samples=4)
    code = main(["study", "--config", str(path), "--grids", "6,8",
                 "--out", str(tmp_path / "study")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert f"{8:>5}  failed: synthetic failure" in lines
    rows = (tmp_path / "study" / "study.csv").read_text().splitlines()
    assert rows[2] == "8,,,,,synthetic failure"


def test_cli_study_bad_grids(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["study", "--config", str(path), "--grids", "6,abc"])
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.skipif(
    os.environ.get("SPBALL_SLOW") != "1", reason="n=128 end-to-end run; set SPBALL_SLOW=1"
)
def test_cli_run_n128_verifies_within_memory(tmp_path):
    # the baseline config at n=128, one BLAS thread, in its own process so its
    # peak resident size is its own (os.wait4 returns that child's rusage)
    path = write_config(
        tmp_path,
        grid_n=128,
        p=7.0,
        forcing={"scaled_to_bound": 0.5},
        samples=64,
        seed=3,
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    log = tmp_path / "run.log"
    with log.open("w") as out:
        child = subprocess.Popen(
            [sys.executable, "-m", "spball", "run", "--config", str(path)]
            + ["--out", str(tmp_path / "out")],
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, log.read_text()
    assert "verification PASSED" in log.read_text()
    assert usage.ru_maxrss < 400 * 1024  # kilobytes on Linux
