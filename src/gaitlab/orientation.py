"""Hip angle estimation from 6-axis IMU data.

One filter, one state, one loop: `madgwick_batch` integrates the gyroscope
rate into a quaternion and corrects it each sample with a gradient-descent
move toward the orientation that agrees with the measured gravity direction
(Madgwick, Harrison & Vaidyanathan, ICORR 2011), which rejects constant gyro
bias in steady state. Its state is one tuple, `OrientationFilterState(w, x,
y, z, accel_rejected)`, and a recording fed in chunks of any size, the
state passed along, gives the one-call output bit for bit.

The filter has one loop in two languages, with one calling convention:
`loop(accel, gyro, out, dt, w, x, y, z, accel_rejected, beta,
gradient_ref)` takes accel in g and gyro in deg/s, writes the hip angles
in degrees into `out` and returns the state's five fields. Each loop does
the unit conversions per sample, the multiplies numpy's `gyro * DEG` and
`np.degrees` would do, so `madgwick_batch` allocates nothing but `out`.
The fast path is the C kernel `_madgwick.c`, a CPython extension module
that holds three loops: this filter's (`loop`), the minima detector's of
`gaitlab.events` (`minima`) and the decimating boxcar of `gaitlab.signal`
(`boxcar`). The first call in a process that runs any of them loads the
module from the package's `__pycache__/`. It is named by a hash of the
source, the compiler flags and the interpreter's include directory, and is
first compiled there with the system C compiler (`cc`) and the
interpreter's headers (`Python.h`) if it is not there yet. Its entry points take the arrays as buffers, so a
10-sample live chunk pays about as much to call the kernel as to run it.
Importing the module builds and loads nothing. The Python loop
`_madgwick_loop` is the kernel's oracle and the fallback wherever the build
or the load fails (no compiler or no headers, a read-only package
directory); `madgwick_batch` calls whichever it has with the same
arguments. The kernel does the Python loop's operations on the same
operands and is built without floating-point contraction, so the two give
the same bits. Two of them run at other points of the kernel's loop, to
keep them off the per-sample quaternion recurrence. The gain's divide is a
branch: `beta / gradient_ref` is divided once per call and `beta / ns` only
on a sample whose gradient norm exceeds `gradient_ref`, the same operands
as the Python loop's `beta / (ns if ns > gradient_ref else gradient_ref)`.
The hip angle's `atan2` runs per block of 256 samples on the numerator and
denominator the recurrence stored, which it reads and never feeds back.
IEEE arithmetic rounds each operation on its own, so when it runs does not
change its result.

Frame convention (after mounting remap): x forward, y left, z up along the
thigh. A positive hip angle (thigh in front of the torso) tilts the sensor
z-axis backward, so a standing sensor reads accel (0, 0, 1) g and a +20 deg
hip angle reads (sin 20, 0, cos 20) g. The sagittal rate on the y gyro is
-d(hip)/dt with this handedness.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GaitInputError

DEG = math.pi / 180.0

# Below this error-gradient norm the correction becomes proportional instead
# of unit-length, so the filter settles exactly instead of chattering by
# one fixed-size step around the solution.
GRADIENT_REF = 0.1

# Step size of the gravity-alignment correction (rad/s).
BETA = 0.15


class OrientationFilterState(NamedTuple):
    """State of the gradient-descent orientation filter.

    The unit orientation quaternion (w, x, y, z) and whether the last
    update ran gyro-only (zero or non-finite accel). The field order is the
    tuple the C kernel's `loop` returns.
    """

    w: float
    x: float
    y: float
    z: float
    accel_rejected: bool


def filter_init() -> OrientationFilterState:
    """Identity-orientation state: exact when the wearer stands straight."""
    return OrientationFilterState(1.0, 0.0, 0.0, 0.0, False)


def madgwick_batch(
    accel: np.ndarray,
    gyro: np.ndarray,
    dt: float,
    state: OrientationFilterState,
) -> tuple[np.ndarray, OrientationFilterState]:
    """Run the filter over (N, 3) accel (g) and gyro (deg/s) arrays.

    Returns the hip angle (deg) after each sample and the state after the
    last one; an empty input returns the input state unchanged. Each sample
    depends only on the state before it, so splitting the arrays into
    chunks and passing the state along is bit-identical to one call.

    The gravity-alignment correction moves along the unit-length
    objective gradient (step size BETA) until the gradient norm falls below
    GRADIENT_REF, after which it scales proportionally and settles without
    limit-cycling. An accelerometer sample of zero norm or with a non-finite
    component falls back to a gyro-only update and sets the state's
    `accel_rejected`; a gyro sample with a non-finite component counts as
    zero rate.

    The loop is the C kernel's `loop`, built on the first call, or the
    Python loop `_madgwick_loop` where the kernel cannot be built or
    loaded. Both take the same arguments, prepared here, and give the same
    bits (see the module docstring).
    """
    a = np.asarray(accel, dtype=np.float64, order="C")
    g = np.asarray(gyro, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[1] != 3 or g.shape != a.shape:
        raise GaitInputError(
            f"accel and gyro must both be (N, 3) with the same N, got "
            f"{a.shape} and {g.shape}"
        )
    if not (math.isfinite(dt) and dt > 0):
        raise GaitInputError(f"dt must be finite and > 0, got {dt}")
    module = _kernel_module()
    loop = _madgwick_loop if module is None else module.loop
    out = np.empty(len(a))
    state = loop(a, g, out, float(dt), *state, BETA, GRADIENT_REF)
    return out, OrientationFilterState._make(state)


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


_KERNEL_SOURCE = Path(__file__).with_name("_madgwick.c")
# Contraction into fused multiply-adds or any reordering would change the
# bits, so the flags hold neither -ffast-math nor -march=native.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")

# Why the last kernel load failed, or None after one that succeeded.
_kernel_error: str | None = None


def _load_kernel(cache_dir: Path = _KERNEL_CACHE, compiler: str = "cc"):
    """Load the C kernel from cache_dir, compiling `_madgwick.c` there if needed.

    The extension module is named by a hash of the source, the flags and
    the interpreter's include directory, and ends in the interpreter's
    extension suffix, so an interpreter with another ABI never loads it. It
    is compiled into a temporary file that is then renamed into place, so
    processes building at once never load a partial file. Returns the
    module, whose `loop`, `minima` and `boxcar` run the filter, the minima
    detector and the decimating boxcar, or None when the build or the load
    fails, with the reason in `_kernel_error`.
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
        path = cache_dir / f"_madgwick.{key}{sysconfig.get_config_var('EXT_SUFFIX')}"
        if not path.exists():
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_madgwick.", suffix=".tmp", dir=cache_dir)
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
        loader = importlib.machinery.ExtensionFileLoader("gaitlab._madgwick", str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader)
        )
        loader.exec_module(module)
    except subprocess.CalledProcessError as exc:
        _kernel_error = f"{compiler} failed: {exc.stderr.decode(errors='replace')}"
        return None
    except (OSError, ImportError) as exc:
        _kernel_error = f"{type(exc).__name__}: {exc}"
        return None
    _kernel_error = None
    return module


# Built and loaded by the first call that runs a kernel loop, not at import.
_kernel_module = functools.cache(_load_kernel)


MOUNTING_AXES = ("y", "-y", "x", "-x")

# Proper rotations taking raw sensor axes to the canonical frame
# (x forward, y left, z up), keyed by which sensor axis points left.
_MOUNT_MATRICES = {
    "y": np.eye(3),
    "-y": np.diag([-1.0, -1.0, 1.0]),
    "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "-x": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}
# Their transposes, C-contiguous: `v @ M.T` through the F-ordered view `M.T`
# takes numpy's slower path. Each matrix is a signed permutation, so every
# output is one exact product plus exact zeros, whose sum has the same bits
# in any order.
_MOUNT_MATRICES_T = {axis: np.ascontiguousarray(m.T) for axis, m in _MOUNT_MATRICES.items()}


def remap_mounting(vectors: np.ndarray, mounting_axis: str) -> np.ndarray:
    """Rotate raw (N, 3) sensor vectors into the canonical thigh frame.

    mounting_axis names the sensor axis that points to the wearer's left;
    the sensor z-axis is assumed up along the thigh in all supported mounts.
    """
    if mounting_axis not in _MOUNT_MATRICES_T:
        raise GaitInputError(
            f"unsupported mounting axis {mounting_axis!r}; expected one of "
            f"{MOUNTING_AXES}"
        )
    v = np.asarray(vectors)
    if v.ndim != 2 or v.shape[1] != 3:
        raise GaitInputError(f"vectors must be (N, 3), got {v.shape}")
    return v @ _MOUNT_MATRICES_T[mounting_axis]
