"""Importing gaitlab loads no heavy dependency and builds nothing.

Every fresh process pays for what the import loads (the benchmark's
`setup_s`). gaitlab needs no scipy at all: both calibration fits run on
the package's own bounded-variable least squares, so not even a whole
user's calibration loads it. The C kernel is built and loaded by
the first call that runs one of its loops (`compute_offsets`,
`apply_offsets`, `remap_mounting`, `madgwick_batch`, `smoothed_block`,
`MinimaDetector.feed_derivative` or `StepSegmenter.run`, which
`gaitlab.pipeline.StreamingAnalyzer` calls, `analyze` too), never by the
import, nor by `_kernel.empty`, whose free list of recycled output memory
is Python's. Only a build imports `subprocess` and `sysconfig`, and no load
imports `hashlib`, so a process that loads a cached kernel pays for neither.
`import gaitlab` alone loads none of the modules. A process that exits
while it holds recycled outputs exits quietly: a release at interpreter
exit still finds the free list.
"""

import os
import subprocess
import sys
from pathlib import Path

import gaitlab

PACKAGE = Path(gaitlab.__file__).parent
MODULES = ("calibrate", "core", "events", "orientation", "pipeline", "signal")


def run_process(*lines):
    """Run `lines` in a new interpreter that writes no bytecode; returns the
    finished process, which must have exited 0."""
    # -B writes no bytecode, so a new file in __pycache__ can only be a build.
    done = subprocess.run(
        [sys.executable, "-B", "-c", "\n".join(lines)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def run_fresh(*lines):
    """Run `lines` as `run_process` does; returns its stdout lines."""
    return run_process(*lines).stdout.splitlines()


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


def test_calibration_loads_no_scipy():
    # One user's whole calibration: both offline fits and ten RLS updates.
    loaded = run_fresh(
        "import sys",
        "import numpy as np",
        "from gaitlab import calibrate as c",
        "from gaitlab.core import EventAngles, StaticParams, StepMeasurement, step_length",
        "rng = np.random.default_rng(3)",
        "nominal = StaticParams(30.0, 45.0, 14.0)",
        "angles = [EventAngles(*rng.uniform([22, 6, -13, 28], [30, 12, -8, 38])) for _ in range(40)]",
        "steps = [StepMeasurement(i, 'LR'[i % 2], a, 0.5 * i, 0.5 * i + 0.1)"
        " for i, a in enumerate(angles)]",
        "refs = [c.ReferenceStep(i, step_length(StaticParams(31.0, 44.0, 13.5), a).total"
        " + rng.normal(0, 0.8)) for i, a in enumerate(angles)]",
        "fit = c.batch_fit_params(steps, refs, nominal)",
        "assert not fit.degenerate",
        "c.batch_fit_biases(steps, refs, fit.params)",
        "state = c.rls_init(nominal)",
        "for s, r in zip(steps[:10], refs):",
        "    state = c.rls_update(state, c.feature_vector(s.angles), r.length_cm)",
        "print(*sys.modules, sep='\\n')",
    )
    assert "gaitlab.calibrate" in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_cached_kernel_loads_without_the_build_modules(compiled_kernel):
    # compiled_kernel has left this package's kernel built in __pycache__.
    loaded_c, *loaded = run_fresh(
        "from gaitlab import _kernel",
        "import sys",
        "print(_kernel.loops() is not _kernel.PYTHON)",
        "print(*sys.modules, sep='\\n')",
    )
    assert loaded_c == "True" and "gaitlab._kernel_c" in loaded
    assert not {"subprocess", "sysconfig", "hashlib"} & set(loaded)


def test_a_recycled_output_loads_no_kernel():
    # A whole recording's (15000, 3) output, taken and released twice.
    currsize, pooled = run_fresh(
        "from gaitlab import _kernel",
        "for _ in range(2):",
        "    out = _kernel.empty((15000, 3))",
        "    del out",
        "print(_kernel.loops.cache_info().currsize)",
        "print(len(_kernel._pool))",
    )
    assert currsize == "0" and pooled == "1"


def test_exit_while_holding_recycled_outputs_is_quiet():
    # `os`, imported before `_kernel`, keeps both until after exit has set
    # `_kernel`'s globals to None; then its list releases the output.
    done = run_process(
        "import os",
        "from gaitlab import _kernel",
        "out = _kernel.empty((15000, 3))",
        "view, mem, column = out[::7], memoryview(out), out[:, 1]",
        "del out",
        "angles = _kernel.empty(15000)[10:]",
        "cycle = [_kernel.empty(20000)]",
        "cycle.append(cycle)",
        "_kernel.empty(30000)",
        "os.kept = [_kernel, _kernel.empty((20000, 3))[5:]]",
    )
    assert done.stdout == "" and done.stderr == ""
