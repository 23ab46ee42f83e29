"""Fixtures shared by the test modules."""

import shutil
import sysconfig
from pathlib import Path

import pytest

from gaitlab import _kernel


@pytest.fixture(scope="session")
def compiled_kernel():
    """The loaded C kernel module, whose entry points the parity tests call.

    Skipped only where the kernel cannot be built: no C compiler (`cc`) on
    PATH or no `Python.h` for this interpreter. Where both exist the kernel
    must load, so a broken build fails the tests instead of skipping them.
    """
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH, so only the Python loops can run")
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        pytest.skip("no Python.h for this interpreter, so only the Python loops can run")
    module = _kernel.loops()
    assert module is not _kernel.PYTHON, _kernel._kernel_error
    return module


@pytest.fixture
def python_loops(monkeypatch):
    """Call it to run the rest of the test on the Python loops.

    Patches `_kernel.loops` to return `_kernel.PYTHON`, as it does where the
    kernel cannot be built, until the test ends.
    """
    return lambda: monkeypatch.setattr(_kernel, "loops", lambda: _kernel.PYTHON)


@pytest.fixture(params=["kernel", "python_loops"])
def loops(request):
    """Runs the test once on the C kernel (skipped where it cannot be built)
    and once on the Python loops."""
    if request.param == "kernel":
        request.getfixturevalue("compiled_kernel")
    else:
        request.getfixturevalue("python_loops")()
