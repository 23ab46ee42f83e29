"""Importing gaitlab loads no heavy dependency and builds nothing.

Every fresh process pays for what the import loads (the benchmark's
`setup_s`). scipy.optimize alone takes most of a second, so `calibrate`
imports it in the functions that fit; the Madgwick kernel is built and
loaded by the first `madgwick_batch` call, never by the import, and so are
`hashlib` and `subprocess`, which only its loader uses.
"""

import os
import subprocess
import sys
from pathlib import Path

import gaitlab

PACKAGE = Path(gaitlab.__file__).parent
MODULES = ("calibrate", "core", "events", "orientation", "signal")


def test_import_loads_no_optimizer_and_builds_no_kernel():
    cache = PACKAGE / "__pycache__"
    before = set(cache.iterdir()) if cache.exists() else set()
    code = "\n".join(
        [
            *(f"import gaitlab.{m}" for m in MODULES),
            "import sys",
            "print(gaitlab.orientation._kernel_module.cache_info().currsize)",
            "print(*sys.modules, sep='\\n')",
        ]
    )
    # -B writes no bytecode, so a new file in __pycache__ can only be a build.
    done = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    kernel_loads, *loaded = done.stdout.splitlines()
    assert "scipy.optimize" not in loaded
    assert "gaitlab._madgwick" not in loaded
    assert "hashlib" not in loaded and "subprocess" not in loaded
    assert kernel_loads == "0"
    after = set(cache.iterdir()) if cache.exists() else set()
    assert after - before == set()
