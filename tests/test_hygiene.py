"""Import hygiene: every name a module imports is used in that module, the
package imports nothing but the standard library, numpy and itself, and it
binds no other object over a submodule's name; pyproject.toml and
spball.version state one version. Run path: every public
function, method and property of the package is reached by `spball run`,
`spball study` or load_report.

Each module under src/spball, tests, demos, perfbench and tools is parsed with
ast; an imported name counts as used when it appears as a name anywhere in
the module or is listed in the module's __all__.
"""

import ast
import importlib
import inspect
import json
import re
import sys
import types
from pathlib import Path

import pytest

import spball
from spball.cli import main
from spball.runner import load_report
from spball.version import __version__

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/spball", "tests", "demos", "perfbench", "tools")
    for path in (ROOT / folder).glob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; `import a.b` binds `a`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


def test_every_tree_is_scanned():
    folders = {path.parent.name for path in MODULES}
    assert folders == {"spball", "tests", "demos", "perfbench", "tools"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_catches_an_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(source) == ["pi (line 2)"]


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported that are not in the standard library, numpy
    or spball; a relative import is the package's own."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "spball"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        found += [f"{root} (line {node.lineno})" for root in roots if root not in allowed]
    return found


@pytest.mark.parametrize("path", [path for path in MODULES if path.parent.name == "spball"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_the_scan_flags_a_third_party_import():
    source = ("from __future__ import annotations\nimport os, scipy.linalg\n"
              "import numpy as np\nfrom . import grid\nfrom spball.grid import lp_norm\n"
              "from hypothesis import given\n")
    assert foreign_imports(source) == ["scipy (line 2)", "hypothesis (line 6)"]


SUBMODULES = sorted(path.stem for path in (ROOT / "src" / "spball").glob("*.py")
                    if path.stem != "__init__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_its_submodule_or_unbound(name):
    # `import spball.<name> as m` reads the package attribute first, so a
    # function bound there would be what m names
    bound = getattr(spball, name, None)
    assert bound is None or (isinstance(bound, types.ModuleType)
                             and bound.__name__ == f"spball.{name}")


def pyproject_version() -> str:
    """[project] version of pyproject.toml: tomllib from Python 3.11, else the
    first `version = "..."` line, which is the [project] table's."""
    text = (ROOT / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["version"]
    return re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)


def test_version_matches_pyproject():
    assert pyproject_version() == __version__


# ---------------------------------------------------------------- run path

# public names that no run reaches, each with its reason
UNREACHED = {
    "sampling.smoothed_random_fields": "the benchmark tracer imports spball.sampling",
}

RUN_CONFIGS = (
    {"grid_n": 8, "p": 7, "coupling": {"constant": 1}, "forcing": {"scaled_to_bound": 0.5}},
    # no multiple of e1 registers this forcing, so the start falls back to u = 0
    {"grid_n": 8, "p": 7, "coupling": {"constant": 1}, "forcing": {"constant": 1e-7}},
)


def public_code() -> dict:
    """Code object -> name of each public module-level function of the
    package, and of each public method or property of its public classes."""
    found = {}
    for short in SUBMODULES:
        if short.startswith("_"):
            continue  # __main__ runs the CLI on import
        module = importlib.import_module(f"spball.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[obj.__code__] = f"{short}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    # property, cached_property, classmethod or plain method
                    fn = (getattr(member, "fget", None) or getattr(member, "func", None)
                          or getattr(member, "__func__", None) or member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found[fn.__code__] = f"{short}.{name}.{attr}"
    return found


def test_every_public_name_is_on_the_run_path(tmp_path, capsys):
    config = tmp_path / "config.json"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = []
        for i, data in enumerate(RUN_CONFIGS):
            config.write_text(json.dumps(data))
            codes.append(main(["run", "--config", str(config), "--out", str(tmp_path / f"run{i}")]))
        codes.append(main(["study", "--config", str(config), "--grids", "6,8",
                           "--out", str(tmp_path / "study")]))
        load_report(tmp_path / "run0" / "report.json")
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0], capsys.readouterr()
    names = public_code()
    assert set(UNREACHED) <= set(names.values())
    unreached = sorted(name for code, name in names.items() if code not in called)
    assert unreached == sorted(UNREACHED)
