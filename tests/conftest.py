"""Fixtures shared by the test modules."""

import shutil
import sysconfig
from pathlib import Path

import pytest

from gaitlab import orientation


@pytest.fixture(scope="session")
def compiled_kernel():
    """The loaded C kernel module, whose `loop`, `minima` and `boxcar` the parity tests call.

    Skipped only where the kernel cannot be built: no C compiler (`cc`) on
    PATH or no `Python.h` for this interpreter. Where both exist the kernel
    must load, so a broken build fails the tests instead of skipping them.
    """
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH, so only the Python loops can run")
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        pytest.skip("no Python.h for this interpreter, so only the Python loops can run")
    module = orientation._kernel_module()
    assert module is not None, orientation._kernel_error
    return module
