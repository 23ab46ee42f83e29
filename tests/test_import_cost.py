"""Importing gaitlab loads no heavy dependency and builds nothing.

Every fresh process pays for what the import loads (the benchmark's
`setup_s`). scipy.optimize alone takes most of a second, so `calibrate`
imports it in the functions that fit. The C kernel is built and loaded by
the first call that runs one of its loops (`madgwick_batch`,
`smoothed_block` or `MinimaDetector.feed_derivative`, which
`gaitlab.pipeline`'s `analyze` and `StreamingAnalyzer` call), never by the
import, and so are `hashlib` and `subprocess`, which only its loader uses.
`import gaitlab` alone loads none of the modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import gaitlab

PACKAGE = Path(gaitlab.__file__).parent
MODULES = ("calibrate", "core", "events", "orientation", "pipeline", "signal")


def run_fresh(*lines):
    """Run `lines` in a new interpreter that writes no bytecode; returns its stdout lines."""
    # -B writes no bytecode, so a new file in __pycache__ can only be a build.
    done = subprocess.run(
        [sys.executable, "-B", "-c", "\n".join(lines)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_no_optimizer_and_builds_no_kernel():
    cache = PACKAGE / "__pycache__"
    before = set(cache.iterdir()) if cache.exists() else set()
    kernel_loads, *loaded = run_fresh(
        *(f"import gaitlab.{m}" for m in MODULES),
        "import sys",
        "print(gaitlab._kernel.loops.cache_info().currsize)",
        "print(*sys.modules, sep='\\n')",
    )
    assert "scipy.optimize" not in loaded
    assert "gaitlab._kernel_c" not in loaded
    assert "hashlib" not in loaded and "subprocess" not in loaded
    assert kernel_loads == "0"
    after = set(cache.iterdir()) if cache.exists() else set()
    assert after - before == set()


def test_signal_and_events_do_not_import_orientation():
    # They reach the compiled loops through gaitlab._kernel, not the filter stage.
    loaded = run_fresh(
        "import gaitlab.signal, gaitlab.events",
        "import sys",
        "print(*sys.modules, sep='\\n')",
    )
    assert "gaitlab._kernel" in loaded
    assert "gaitlab.orientation" not in loaded


def test_package_import_loads_no_module():
    # gaitlab/__init__.py is empty: the pipeline is imported only by name.
    loaded = run_fresh("import gaitlab", "import sys", "print(*sys.modules, sep='\\n')")
    assert "gaitlab" in loaded
    assert not [m for m in loaded if m.startswith("gaitlab.")]
