"""Fixtures shared by the test modules."""

import shutil
import sysconfig
from pathlib import Path

import pytest

from gaitlab import _kernel


def kernel_unbuildable():
    """Why the kernel cannot be built here, or None where it can."""
    if shutil.which("cc") is None:
        return "no C compiler (cc) on PATH, so only the Python loops can run"
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        return "no Python.h for this interpreter, so only the Python loops can run"
    return None


@pytest.fixture(scope="session")
def compiled_kernel():
    """The loaded C kernel module, whose entry points the parity tests call.

    Skipped only where the kernel cannot be built: no C compiler (`cc`) on
    PATH or no `Python.h` for this interpreter. Where both exist the kernel
    must load, so a broken build fails the tests instead of skipping them.
    """
    if (reason := kernel_unbuildable()) is not None:
        pytest.skip(reason)
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


@pytest.fixture(scope="module", params=["kernel", "python_loops"])
def loops_module(request):
    """The C kernel (skipped where it cannot be built), then the Python loops,
    `_kernel.PYTHON`: the module whose entry points the test calls.

    Module-scoped, unlike `loops`, so that hypothesis tests can take it; a
    test patches `_kernel.loops` with it where it needs to.
    """
    if request.param == "kernel":
        return request.getfixturevalue("compiled_kernel")
    return _kernel.PYTHON


@pytest.fixture
def each_path(request, python_loops):
    """Call it for the paths to run a test's body on, in turn, under the
    test's one id: the C kernel (not where it cannot be built), then the
    Python loops, which stay patched in until the test ends."""

    def paths():
        if kernel_unbuildable() is None:
            request.getfixturevalue("compiled_kernel")
            yield "kernel"
        python_loops()
        yield "python_loops"

    return paths
