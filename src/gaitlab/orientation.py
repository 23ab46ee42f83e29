"""Hip angle estimation from 6-axis IMU data.

One filter, one loop: `madgwick_batch` integrates the gyroscope rate into a
quaternion and corrects it each sample with a gradient-descent move toward
the orientation that agrees with the measured gravity direction (Madgwick,
Harrison & Vaidyanathan, ICORR 2011), which rejects constant gyro bias in
steady state. `madgwick_update` is its one-sample case, and a recording fed
in chunks of any size gives the one-call output bit for bit.

Frame convention (after mounting remap): x forward, y left, z up along the
thigh. A positive hip angle (thigh in front of the torso) tilts the sensor
z-axis backward, so a standing sensor reads accel (0, 0, 1) g and a +20 deg
hip angle reads (sin 20, 0, cos 20) g. The sagittal rate on the y gyro is
-d(hip)/dt with this handedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaitInputError

DEG = math.pi / 180.0

# Below this error-gradient norm the correction becomes proportional instead
# of unit-length, so the filter settles exactly instead of chattering by
# one fixed-size step around the solution.
GRADIENT_REF = 0.1

# Step size of the gravity-alignment correction (rad/s).
BETA = 0.15


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)


def quat_sagittal(hip_angle_deg: float) -> Quaternion:
    """Quaternion of a pure sagittal-plane posture at the given hip angle."""
    half = 0.5 * hip_angle_deg * DEG
    return Quaternion(math.cos(half), 0.0, -math.sin(half), 0.0)


def hip_angle(q: Quaternion) -> float:
    """Signed sagittal hip angle (degrees) of a unit orientation quaternion.

    Positive with the thigh in front of the torso. Computed from the
    gravity direction the orientation predicts in the sensor frame, so it
    agrees with the accelerometer-only angle atan2(ax, az) in statics.
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    gx = 2.0 * (x * z - w * y)
    gz = 1.0 - 2.0 * (x * x + y * y)
    return math.degrees(math.atan2(gx, gz))


@dataclass(frozen=True)
class OrientationFilterState:
    """State of the gradient-descent orientation filter."""

    q: Quaternion
    accel_rejected: bool = False  # last update ran gyro-only (zero accel)


def filter_init() -> OrientationFilterState:
    """Identity-orientation state: exact when the wearer stands straight."""
    return OrientationFilterState(q=Quaternion.identity())


def madgwick_update(
    state: OrientationFilterState, accel_g, gyro_dps, dt: float
) -> OrientationFilterState:
    """Advance the filter by one sample period: `madgwick_batch` on one row."""
    accel = np.asarray(accel_g, dtype=np.float64)[np.newaxis]
    gyro = np.asarray(gyro_dps, dtype=np.float64)[np.newaxis]
    return madgwick_batch(accel, gyro, dt, state)[1]


def madgwick_batch(
    accel: np.ndarray,
    gyro: np.ndarray,
    dt: float,
    state: OrientationFilterState,
) -> tuple[np.ndarray, OrientationFilterState]:
    """Run the filter over (N, 3) accel (g) and gyro (deg/s) arrays.

    Returns the hip angle (deg) after each sample and the state after the
    last one; an empty input returns the input state unchanged. Each sample
    depends only on the quaternion before it, so splitting the arrays into
    chunks and passing the state along is bit-identical to one call.

    The gravity-alignment correction moves along the unit-length
    objective gradient (step size BETA) until the gradient norm falls below
    GRADIENT_REF, after which it scales proportionally and settles without
    limit-cycling. A zero-norm accelerometer sample falls back to a
    gyro-only update and flags the state.
    """
    a = np.asarray(accel, dtype=np.float64)
    g = np.asarray(gyro, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3 or g.shape != a.shape:
        raise GaitInputError(
            f"accel and gyro must both be (N, 3) with the same N, got "
            f"{a.shape} and {g.shape}"
        )
    if not dt > 0:
        raise GaitInputError(f"dt must be positive, got {dt}")
    q = state.q
    w, x, y, z = q.w, q.x, q.y, q.z
    out = []
    sqrt = math.sqrt
    atan2 = math.atan2
    beta = BETA
    accel_used = not state.accel_rejected
    # The loop runs on plain floats for throughput.
    for (ax, ay, az), (gx, gy, gz) in zip(a.tolist(), (g * DEG).tolist()):
        an = sqrt(ax * ax + ay * ay + az * az)
        accel_used = an > 0.0
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
                k = beta / (ns if ns > GRADIENT_REF else GRADIENT_REF)
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
        out.append(atan2(2.0 * (x * z - w * y), 1.0 - 2.0 * (x * x + y * y)))
    new_state = OrientationFilterState(
        q=Quaternion(w, x, y, z), accel_rejected=not accel_used
    )
    return np.degrees(np.array(out, dtype=np.float64)), new_state


MOUNTING_AXES = ("y", "-y", "x", "-x")

# Proper rotations taking raw sensor axes to the canonical frame
# (x forward, y left, z up), keyed by which sensor axis points left.
_MOUNT_MATRICES = {
    "y": np.eye(3),
    "-y": np.diag([-1.0, -1.0, 1.0]),
    "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "-x": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}


def remap_mounting(vectors: np.ndarray, mounting_axis: str) -> np.ndarray:
    """Rotate raw (N, 3) sensor vectors into the canonical thigh frame.

    mounting_axis names the sensor axis that points to the wearer's left;
    the sensor z-axis is assumed up along the thigh in all supported mounts.
    """
    if mounting_axis not in _MOUNT_MATRICES:
        raise GaitInputError(
            f"unsupported mounting axis {mounting_axis!r}; expected one of "
            f"{MOUNTING_AXES}"
        )
    return np.asarray(vectors) @ _MOUNT_MATRICES[mounting_axis].T
