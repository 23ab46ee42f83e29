"""The packaging metadata declares only what exists."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def import_requirements(requirements):
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_runtime_dependencies_import():
    import_requirements(PYPROJECT["project"].get("dependencies", []))


def test_test_extra_imports():
    import_requirements(PYPROJECT["project"]["optional-dependencies"]["test"])


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
