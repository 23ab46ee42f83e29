"""The packaging metadata declares only what exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def module_name(requirement):
    """The module a requirement such as "scipy>=1.10" installs, by its name."""
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).replace("-", "_")


def import_requirements(requirements):
    for requirement in requirements:
        importlib.import_module(module_name(requirement))


def test_runtime_dependencies_import():
    import_requirements(PYPROJECT["project"].get("dependencies", []))


def test_test_extra_imports():
    import_requirements(PYPROJECT["project"]["optional-dependencies"]["test"])


def test_test_extra_is_imported_by_the_tests_or_the_benchmark():
    imported = set()
    for path in [*(ROOT / "tests").rglob("*.py"), *(ROOT / "gaitbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    unused = [r for r in PYPROJECT["project"]["optional-dependencies"]["test"]
              if module_name(r) not in imported]
    assert unused == []


def test_script_targets_resolve():
    for script, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), script


def test_package_data_exists():
    setuptools = PYPROJECT["tool"]["setuptools"]
    where = setuptools["packages"]["find"]["where"][0]
    for package, patterns in setuptools.get("package-data", {}).items():
        package_dir = ROOT / where / package.replace(".", "/")
        for pattern in patterns:
            assert list(package_dir.glob(pattern)), f"{package}: {pattern}"
