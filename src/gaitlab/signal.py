"""Sensor-stream preprocessing: standing-still offset calibration and the
downsample-and-smooth filter.

The filter averages a centered window of exactly 2M input samples while
decimating by M:

    out[k] = (1 / 2M) * sum(s[M*(k-1) : M*(k+1)])        (0-based slice)

Output k is stamped at input sample M*k - 1 (0-based), so the first and
last incomplete windows are dropped rather than padded. With the native
rates used here (IMU 250 Hz with M=10, bend sensor 100 Hz with M=4) both
streams come out at 25 Hz, comfortably above the <10 Hz content of gait.

Offsets are per-channel medians over a standing-still window; for the
accelerometer the median is taken relative to the 1 g gravity vector so
that a calibrated, standing sensor reads exactly (0, 0, 1) g.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, GaitInputError

IMU_RATE_HZ = 250.0
BEND_RATE_HZ = 100.0
GRAVITY_G = np.array([0.0, 0.0, 1.0])

# Channel spreads above these mean the subject moved during the standing
# window. Generous bounds for hand-held trials. Spread is a MAD-based robust
# sigma so isolated sensor glitches do not fail calibration (the median
# offsets reject them anyway).
STILL_STD_ACCEL_G = 0.05
STILL_STD_GYRO_DPS = 2.0
STILL_STD_BEND_DEG = 1.0

_MAD_TO_SIGMA = 1.4826


def robust_sigma(values: np.ndarray, axis: int = 0) -> np.ndarray:
    med = np.median(values, axis=axis, keepdims=True)
    return _MAD_TO_SIGMA * np.median(np.abs(values - med), axis=axis)

MIN_CALIB_SAMPLES = 25
JITTER_TOLERANCE = 0.2  # fraction of the nominal sample period


@dataclass
class ImuStream:
    """Timestamped raw IMU samples: accel in g, gyro in deg/s."""

    t: np.ndarray
    accel: np.ndarray  # (N, 3)
    gyro: np.ndarray  # (N, 3)

    def __len__(self):
        return len(self.t)


@dataclass
class BendStream:
    """Timestamped raw bend-sensor samples: knee angle in degrees."""

    t: np.ndarray
    angle_deg: np.ndarray  # (N,)

    def __len__(self):
        return len(self.t)


@dataclass
class UniformSeries:
    """A uniform-rate scalar (or fixed-width vector) series.

    Sample k is stamped t0 + k / rate.
    """

    t0: float
    rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        if not self.rate_hz > 0:
            raise GaitInputError(f"rate must be positive, got {self.rate_hz}")

    def __len__(self):
        return len(self.values)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.values)) / self.rate_hz

    def time_at(self, index: int) -> float:
        return self.t0 + index / self.rate_hz

    def index_near(self, t: float) -> int:
        i = int(round((t - self.t0) * self.rate_hz))
        return min(max(i, 0), len(self.values) - 1)


@dataclass
class OffsetSet:
    """Per-channel offsets to subtract from raw samples of one leg."""

    accel_g: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_dps: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bend_deg: float = 0.0


def check_stream_timing(t: np.ndarray, nominal_rate_hz: float, label: str = "stream") -> None:
    """Validate timestamps: monotone within jitter tolerance, warn on jitter.

    The filter below is index-based, so jittered timestamps are tolerated
    (samples are re-indexed by order); jitter beyond 20% of the nominal
    period raises a data-quality warning, and backwards jumps beyond the
    tolerance are an error.
    """
    if len(t) < 2:
        return
    period = 1.0 / nominal_rate_hz
    dt = np.diff(t)
    if np.any(dt < -JITTER_TOLERANCE * period):
        worst = float(dt.min())
        raise GaitInputError(
            f"{label}: timestamps go backwards by {-worst:.6f} s, beyond the "
            f"{JITTER_TOLERANCE * period:.6f} s jitter tolerance"
        )
    if np.any(np.abs(dt - period) > JITTER_TOLERANCE * period):
        warnings.warn(
            f"{label}: timestamp jitter exceeds {JITTER_TOLERANCE:.0%} of the "
            f"nominal {period * 1e3:.1f} ms period; samples re-indexed by order",
            stacklevel=2,
        )


def compute_offsets(imu: ImuStream | None, bend: BendStream | None) -> OffsetSet:
    """Derive per-channel offsets from a standing-still window.

    Medians reject occasional outlier samples. Accelerometer offsets are
    medians of the deviation from the (0, 0, 1) g gravity vector, so
    subtracting them preserves gravity on the vertical axis. Raises
    CalibrationError if a window is too short or the subject moved.
    """
    offsets = OffsetSet()
    if imu is not None:
        if len(imu) < MIN_CALIB_SAMPLES:
            raise CalibrationError(
                f"standing window too short: {len(imu)} IMU samples "
                f"(need >= {MIN_CALIB_SAMPLES})"
            )
        accel_std = robust_sigma(imu.accel)
        gyro_std = robust_sigma(imu.gyro)
        if np.any(accel_std > STILL_STD_ACCEL_G):
            raise CalibrationError(
                f"accelerometer not still: std {accel_std} g exceeds "
                f"{STILL_STD_ACCEL_G} g"
            )
        if np.any(gyro_std > STILL_STD_GYRO_DPS):
            raise CalibrationError(
                f"gyroscope not still: std {gyro_std} deg/s exceeds "
                f"{STILL_STD_GYRO_DPS} deg/s"
            )
        offsets.accel_g = np.median(imu.accel - GRAVITY_G, axis=0)
        offsets.gyro_dps = np.median(imu.gyro, axis=0)
    if bend is not None:
        if len(bend) < MIN_CALIB_SAMPLES:
            raise CalibrationError(
                f"standing window too short: {len(bend)} bend samples "
                f"(need >= {MIN_CALIB_SAMPLES})"
            )
        bend_std = float(robust_sigma(bend.angle_deg))
        if bend_std > STILL_STD_BEND_DEG:
            raise CalibrationError(
                f"bend sensor not still: std {bend_std:.3f} deg exceeds "
                f"{STILL_STD_BEND_DEG} deg"
            )
        offsets.bend_deg = float(np.median(bend.angle_deg))
    return offsets


def apply_offsets(
    imu: ImuStream | None, bend: BendStream | None, offsets: OffsetSet
) -> tuple[ImuStream | None, BendStream | None]:
    """Subtract calibration offsets; returns corrected copies."""
    imu_out = None
    if imu is not None:
        imu_out = ImuStream(imu.t, imu.accel - offsets.accel_g, imu.gyro - offsets.gyro_dps)
    bend_out = None
    if bend is not None:
        bend_out = BendStream(bend.t, bend.angle_deg - offsets.bend_deg)
    return imu_out, bend_out


def smoothed_block(values: np.ndarray, m: int, k_start: int, k_stop: int) -> np.ndarray:
    """Filter outputs for output indices [k_start, k_stop) of a value buffer.

    Shared by the batch operation and the streaming decimator so that both
    produce bit-identical results: each output is the sum of the same 2M
    contiguous input samples, reduced in the same order, divided by 2M.

    The live decimator calls this about four times per 40 ms chunk, mostly
    for one output, so the per-call cost dominates there: the windows are
    one strided view over a contiguous copy of the samples they cover (no
    copy for contiguous input), far cheaper to set up than a general
    sliding-window view. The copy also makes the bits independent of the
    input's memory layout. A buffer too short for output k_stop - 1 raises
    GaitInputError.
    """
    if k_stop <= k_start:
        return values[:0]
    hi = m * k_stop + m  # slice end of the last window
    if hi > len(values):
        raise GaitInputError(
            f"output {k_stop - 1} needs {hi} samples, the buffer holds {len(values)}"
        )
    seg = np.ascontiguousarray(values[m * k_start : hi])
    s = seg.strides
    window = np.ndarray(
        (k_stop - k_start, *seg.shape[1:], 2 * m),
        seg.dtype,
        seg,
        strides=(m * s[0], *s[1:], s[0]),
    )
    return np.add.reduce(window, axis=-1) / (2 * m)


def downsample_smooth(
    values: np.ndarray, m: int, rate_hz: float, t0: float = 0.0
) -> UniformSeries:
    """Decimate by M while averaging centered 2M-sample windows.

    `values` may be (N,) or (N, C). The output rate is rate_hz / M; output
    sample j corresponds to input index M*(j+1) - 1. Incomplete edge
    windows are dropped.
    """
    if m < 1:
        raise GaitInputError(f"downsampling factor must be >= 1, got {m}")
    n = len(values)
    if n == 0:
        raise GaitInputError("empty stream")
    if n < 2 * m:
        raise GaitInputError(
            f"stream of {n} samples is shorter than one 2M={2 * m} window"
        )
    values = np.asarray(values, dtype=np.float64)
    n_out = (n - 2 * m) // m + 1
    out = smoothed_block(values, m, 0, n_out)
    return UniformSeries(t0=t0 + (m - 1) / rate_hz, rate_hz=rate_hz / m, values=out)
