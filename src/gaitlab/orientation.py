"""Hip angle estimation from 6-axis IMU data.

One filter, one state, one loop: `madgwick_batch` integrates the gyroscope
rate into a quaternion and corrects it each sample with a gradient-descent
move toward the orientation that agrees with the measured gravity direction
(Madgwick, Harrison & Vaidyanathan, ICORR 2011), which rejects constant gyro
bias in steady state. Its state is one tuple, `OrientationFilterState(w, x,
y, z, accel_rejected)`, and a recording fed in chunks of any size, the
state passed along, gives the one-call output bit for bit.

`madgwick_batch` runs the filter loop `loop` of `gaitlab._kernel`, and
`remap_mounting` its row loop `rotate`: the C kernel's where it loads,
their Python twins where it does not.

Frame convention (after mounting remap): x forward, y left, z up along the
thigh. A positive hip angle (thigh in front of the torso) tilts the sensor
z-axis backward, so a standing sensor reads accel (0, 0, 1) g and a +20 deg
hip angle reads (sin 20, 0, cos 20) g. The sagittal rate on the y gyro is
-d(hip)/dt with this handedness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernel
from .errors import GaitInputError

# Below this error-gradient norm the correction becomes proportional instead
# of unit-length, so the filter settles exactly instead of chattering by
# one fixed-size step around the solution.
GRADIENT_REF = 0.1

# Step size of the gravity-alignment correction (rad/s).
BETA = 0.15

_F64 = _kernel.F64
_tuple_new = tuple.__new__


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

    The loop is `_kernel.loops().loop`, which takes the arguments prepared
    here and gives the same bits in C and in Python. The returned angles
    are `_kernel.empty`'s, recycled memory for a whole recording; the loop
    writes every element, so the bits are those of a new array.
    """
    a = np.asarray(accel, dtype=_F64, order="C")
    g = np.asarray(gyro, dtype=_F64, order="C")
    if a.ndim != 2 or a.shape[1] != 3 or g.shape != a.shape:
        raise GaitInputError(
            f"accel and gyro must both be (N, 3) with the same N, got "
            f"{a.shape} and {g.shape}"
        )
    if not 0 < dt < math.inf:  # NaN fails too
        raise GaitInputError(f"dt must be finite and > 0, got {dt}")
    out = _kernel.empty(len(a))
    state = _kernel.loops().loop(a, g, out, float(dt), *state, BETA, GRADIENT_REF)
    # OrientationFilterState._make(state) without its frame: the loop returns five fields.
    return out, _tuple_new(OrientationFilterState, state)


MOUNTING_AXES = ("y", "-y", "x", "-x")

# Proper rotations taking raw sensor axes to the canonical frame
# (x forward, y left, z up), keyed by which sensor axis points left.
_MOUNT_MATRICES = {
    "y": np.eye(3),
    "-y": np.diag([-1.0, -1.0, 1.0]),
    "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "-x": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}
# Their transposes, C-contiguous, as the kernel's `rotate` reads them:
# `v @ M.T` is `rotate(v, M_T)`. Each matrix is a signed permutation, so
# every output is one exact product plus exact zeros, whose sum has the
# same bits in any order that starts from +0.0.
_MOUNT_MATRICES_T = {axis: np.ascontiguousarray(m.T) for axis, m in _MOUNT_MATRICES.items()}


def remap_mounting(vectors: np.ndarray, mounting_axis: str) -> np.ndarray:
    """Rotate raw (N, 3) sensor vectors into the canonical thigh frame.

    mounting_axis names the sensor axis that points to the wearer's left;
    the sensor z-axis is assumed up along the thigh in all supported mounts.

    The vectors are converted once to a C-contiguous float64 array, and the
    kernel's row loop `rotate` writes `v @ M` into `_kernel.empty`, with
    numpy's bits and without its warning where an inf meets a zero of M
    (the row comes out with NaN, as from numpy). A whole recording's
    output takes recycled memory, as `_kernel.empty` says.
    """
    matrix = _MOUNT_MATRICES_T.get(mounting_axis)
    if matrix is None:
        raise GaitInputError(
            f"unsupported mounting axis {mounting_axis!r}; expected one of "
            f"{MOUNTING_AXES}"
        )
    v = np.asarray(vectors, dtype=_F64, order="C")
    if v.ndim != 2 or v.shape[1] != 3:
        raise GaitInputError(f"vectors must be (N, 3), got {v.shape}")
    out = _kernel.empty(v.shape)
    _kernel.loops().rotate(v, matrix, out)
    return out
