"""The chain's three compiled loops, their Python twins and the loader that picks one.

Three loops of the chain run once per sample, so they run in C wherever a C
compiler is found: the Madgwick filter of `orientation.madgwick_batch`
(`loop`), the minima detector of `events.MinimaDetector.feed_derivative`
(`minima`) and the decimating boxcar of `signal.smoothed_block` (`boxcar`).
Their source, `_kernel.c`, is one CPython extension module with those three
entry points. Each has a Python twin here, `_madgwick_loop`, `_minima_loop`
and `_boxcar_loop`, that takes the same arguments and returns the same
values: the kernel's oracle, and its fallback wherever the kernel cannot be
built or loaded (no compiler or no headers, a read-only package directory).
`loops()` returns the C module where it loads and otherwise `PYTHON`, the
twins under the C names, so each stage makes the same call,
`loops().loop(...)`, `.minima(...)` or `.boxcar(...)`, either way.

The first `loops()` call in a process loads the module from the package's
`__pycache__/`. It is named by a hash of the source, the compiler flags and
the interpreter's include directory, and is first compiled there with the
system C compiler (`cc`) and the interpreter's headers (`Python.h`) if it
is not there yet. Importing this module builds and loads nothing. The entry
points take the arrays as buffers, without copying, so a 10-sample live
chunk pays about as much to call the kernel as to run it.

Each C loop does its twin's operations on the same operands in the same
order, and the kernel is built without floating-point contraction or
reassociation, so the two give the same bits. IEEE arithmetic rounds each
operation on its own, so when an operation runs does not change its result,
and the filter's kernel runs two of them at other points of its loop, to
keep them off the per-sample quaternion recurrence:
- The gain's divide is a branch: `beta / gradient_ref` is divided once per
  call and `beta / ns` only on a sample whose gradient norm exceeds
  `gradient_ref`, the same operands as the twin's
  `beta / (ns if ns > gradient_ref else gradient_ref)`.
- The hip angle's `atan2` runs per block of 256 samples on the numerator
  and denominator the recurrence stored, which it reads and never feeds back.

The filter takes accel in g and gyro in deg/s and writes the hip angles in
degrees: each loop multiplies per sample by `DEG` and by `_DEG_PER_RAD`, the
multiplies numpy's `gyro * DEG` and `np.degrees` would do, so
`madgwick_batch` allocates nothing but its output. The detector's state is
five plain numbers in both languages. The kernel's boxcar sums each window
in the order of numpy's contiguous add reduction, so its means are
`np.add.reduce`'s bits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

DEG = math.pi / 180.0

# Radians to degrees, as np.degrees multiplies.
_DEG_PER_RAD = 180.0 / math.pi


def _madgwick_loop(accel, gyro, out, dt, w, x, y, z, accel_rejected, beta, gradient_ref):
    """The filter loop in Python: the fallback and the oracle of the kernel's `loop`.

    Takes what the kernel's `loop` takes: (N, 3) accel (g) and gyro (deg/s),
    the array of N that receives the hip angles (deg), the time step, the
    incoming state's five fields and the gain constants. Returns the state
    after the last sample as the same five plain values.
    """
    angles = []
    sqrt = math.sqrt
    atan2 = math.atan2
    isfinite = math.isfinite
    accel_used = not accel_rejected
    # The loop runs on plain floats for throughput; `gyro * DEG` is the
    # kernel's per-sample multiply, done for all samples at once.
    for (ax, ay, az), (gx, gy, gz) in zip(accel.tolist(), (gyro * DEG).tolist()):
        if not (isfinite(gx) and isfinite(gy) and isfinite(gz)):
            gx = gy = gz = 0.0
        an = sqrt(ax * ax + ay * ay + az * az)
        accel_used = an > 0.0 and isfinite(ax) and isfinite(ay) and isfinite(az)
        if accel_used:
            axn = ax / an
            ayn = ay / an
            azn = az / an
            _2w = 2.0 * w
            _2x = 2.0 * x
            _2y = 2.0 * y
            _2z = 2.0 * z
            # Objective: predicted gravity in the sensor frame minus measurement.
            f1 = _2x * z - _2w * y - axn
            f2 = _2w * x + _2y * z - ayn
            f3 = 1.0 - _2x * x - _2y * y - azn
            s0 = -_2y * f1 + _2x * f2
            s1 = _2z * f1 + _2w * f2 - 2.0 * _2x * f3
            s2 = -_2w * f1 + _2z * f2 - 2.0 * _2y * f3
            s3 = _2x * f1 + _2y * f2
            ns = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
            if ns > 0.0:
                k = beta / (ns if ns > gradient_ref else gradient_ref)
                c0 = k * s0
                c1 = k * s1
                c2 = k * s2
                c3 = k * s3
            else:
                c0 = c1 = c2 = c3 = 0.0
        else:
            c0 = c1 = c2 = c3 = 0.0

        qdw = 0.5 * (-x * gx - y * gy - z * gz) - c0
        qdx = 0.5 * (w * gx + y * gz - z * gy) - c1
        qdy = 0.5 * (w * gy - x * gz + z * gx) - c2
        qdz = 0.5 * (w * gz + x * gy - y * gx) - c3

        w += qdw * dt
        x += qdx * dt
        y += qdy * dt
        z += qdz * dt
        inv = 1.0 / sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w * inv, x * inv, y * inv, z * inv
        angles.append(
            atan2(2.0 * (x * z - w * y), 1.0 - 2.0 * (x * x + y * y)) * _DEG_PER_RAD
        )
    out[:] = angles
    return w, x, y, z, not accel_used


def _minima_loop(
    values, derivs, i, d_prev, pending, run_max, last_accept_t, prominence, refractory, t0, rate
):
    """The detector loop in Python: the fallback and the oracle of the kernel's `minima`.

    Takes the series, the derivatives, the detector's state as five numbers
    and the settings. Returns the state after the derivatives processed, the
    confirmed minima as `(index, t, value)` and whether the last derivative
    processed outran the series; the loop stops there, with that
    derivative's index and value in the state.
    """
    found = []
    s = values
    n = len(s)
    nxt = i
    for d in derivs.tolist():
        i = nxt
        nxt = i + 1
        before, d_prev = d_prev, d
        if i == 0:
            continue
        if i >= n:
            return nxt, d_prev, pending, run_max, last_accept_t, found, True
        if pending < 0:
            if s[i - 1] > run_max:
                run_max = s[i - 1]
            if d > 0.0 and before <= 0.0:
                j = i - 1 if s[i - 1] <= s[i] else i
                t_j = t0 + j / rate
                if t_j - last_accept_t >= refractory and run_max - s[j] >= prominence:
                    pending = j
        else:
            j = pending
            if s[i] < s[j]:
                pending = i
            elif s[i] - s[j] >= prominence:
                last_accept_t = t0 + j / rate
                found.append((j, last_accept_t, s[j]))
                pending = -1
                run_max = s[i]
    return nxt, d_prev, pending, run_max, last_accept_t, found, False


def _boxcar_loop(values, out, m, k_start):
    """The boxcar in numpy: the fallback and the oracle of the kernel's `boxcar`.

    Takes what the kernel's `boxcar` takes: the C-contiguous 1-D float64
    value buffer, the float64 array that receives outputs
    [k_start, k_start + len(out)), the factor M and k_start. Lays the
    windows as one strided view over the samples they cover and divides
    their np.add.reduce by 2M; numpy reduces each contiguous window in its
    pairwise order, which the kernel reproduces.
    """
    seg = values[m * k_start : m * (k_start + len(out)) + m]
    step = seg.strides[0]
    window = np.ndarray((len(out), 2 * m), seg.dtype, seg, strides=(m * step, step))
    np.divide(np.add.reduce(window, axis=-1), 2 * m, out=out)


# The twins under the kernel's entry-point names.
PYTHON = SimpleNamespace(loop=_madgwick_loop, minima=_minima_loop, boxcar=_boxcar_loop)


_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# Contraction into fused multiply-adds or any reordering would change the
# bits, so the flags hold neither -ffast-math nor -march=native.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")

# Why the last kernel load failed, or None after one that succeeded.
_kernel_error: str | None = None


def _remove_stale_builds(path: Path, suffix: str) -> None:
    """Unlink every `_kernel_c.*<suffix>` in `path`'s directory but `path`.

    Called right after `path` is built, so the builds of older sources or
    flags do not pile up. Temporary files (perhaps another process's build
    in progress) and other ABIs' builds end otherwise, so they stay. Two
    interpreters with one suffix but different include directories evict
    each other's build, and each rebuilds on its next first load. An unlink
    that fails (another process removed the file first, or the platform
    keeps a loaded file) is skipped.
    """
    for old in path.parent.glob(f"_kernel_c.*{suffix}"):
        if old != path:
            try:
                old.unlink()
            except OSError:
                pass


def _load_kernel(cache_dir: Path = _KERNEL_CACHE, compiler: str = "cc"):
    """Load the C kernel from cache_dir, compiling `_kernel.c` there if needed.

    The extension module is named by a hash of the source, the flags and
    the interpreter's include directory, and ends in the interpreter's
    extension suffix, so an interpreter with another ABI never loads it. It
    is compiled into a temporary file that is then renamed into place, so
    processes building at once never load a partial file. A build removes
    the older builds with the same suffix (`_remove_stale_builds`); a load
    that compiles nothing removes nothing. Returns the
    module, whose `loop`, `minima` and `boxcar` run the filter, the minima
    detector and the decimating boxcar, or `PYTHON` when the build or the
    load fails, with the reason in `_kernel_error`.
    """
    global _kernel_error
    # Only where a kernel is loaded, to keep the import cheap.
    import hashlib
    import subprocess
    import sysconfig

    try:
        flags = (*_KERNEL_FLAGS, f"-I{sysconfig.get_paths()['include']}")
        key = hashlib.sha256(
            _KERNEL_SOURCE.read_bytes() + " ".join(flags).encode()
        ).hexdigest()[:16]
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        path = cache_dir / f"_kernel_c.{key}{suffix}"
        if not path.exists():
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_kernel_c.", suffix=".tmp", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run(
                    [compiler, *flags, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                    check=True,
                    capture_output=True,
                )
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            _remove_stale_builds(path, suffix)
        loader = importlib.machinery.ExtensionFileLoader("gaitlab._kernel_c", str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader)
        )
        loader.exec_module(module)
    except subprocess.CalledProcessError as exc:
        _kernel_error = f"{compiler} failed: {exc.stderr.decode(errors='replace')}"
        return PYTHON
    except (OSError, ImportError) as exc:
        _kernel_error = f"{type(exc).__name__}: {exc}"
        return PYTHON
    _kernel_error = None
    return module


# The C module or PYTHON, built and loaded by the first call, not at import.
loops = functools.cache(_load_kernel)
