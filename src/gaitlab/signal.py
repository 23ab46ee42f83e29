"""Sensor-stream preprocessing: standing-still offset calibration and the
downsample-and-smooth filter.

The filter averages a centered window of exactly 2M input samples while
decimating by M:

    out[k] = (1 / 2M) * sum(s[M*k : M*(k+2)])        (0-based slice)

Output k is stamped at input sample M*(k+1) - 1 (0-based), so the first and
last incomplete windows are dropped rather than padded. With the native
rates used here (IMU 250 Hz with M=10, bend sensor 100 Hz with M=4) both
streams come out at 25 Hz, comfortably above the <10 Hz content of gait.
The filter's loop runs in two languages with one calling convention,
`boxcar(values, out, m, k_start)`: the `boxcar` entry point of the C kernel
that also holds the Madgwick filter's loop (see `gaitlab.orientation`,
whose loader builds and loads it on first use), and `_boxcar_loop`, its
numpy oracle and fallback. The kernel sums each window in the order of
numpy's add reduction, so the two give the same bits.

Offsets are per-channel medians over a standing-still window; for the
accelerometer the median is taken relative to the 1 g gravity vector so
that a calibrated, standing sensor reads exactly (0, 0, 1) g.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from . import orientation
from .errors import CalibrationError, GaitInputError

GRAVITY_G = np.array([0.0, 0.0, 1.0])

# Channel spreads above these mean the subject moved during the standing
# window. Generous bounds for hand-held trials. Spread is a MAD-based robust
# sigma so isolated sensor glitches do not fail calibration (the median
# offsets reject them anyway).
STILL_STD_ACCEL_G = 0.05
STILL_STD_GYRO_DPS = 2.0
STILL_STD_BEND_DEG = 1.0

_MAD_TO_SIGMA = 1.4826


def _check_rate(rate_hz: float) -> None:
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        raise GaitInputError(f"rate must be finite and > 0, got {rate_hz}")


def _median_rows(rows: np.ndarray) -> np.ndarray:
    """np.median(rows, axis=-1), partitioning `rows` in place: the same bits.

    One partition along the last axis puts the middle value, or the two
    middle values of an even-length row, in place. np.median then takes
    their np.mean, a sum that starts from +0.0 divided by the count, so the
    sum here starts from +0.0 too: a median of -0.0 comes out +0.0. No NaN
    handling: the windows are checked finite first.
    """
    h = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        rows.partition(h)
        return 0.0 + rows[..., h]
    rows.partition((h - 1, h))
    return (0.0 + rows[..., h - 1] + rows[..., h]) / 2

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


@dataclass(frozen=True)
class UniformSeries:
    """A uniform-rate scalar (or fixed-width vector) series.

    Sample k is stamped t0 + k / rate. Frozen, so the checks on the rate
    and the start time hold for the series' life.
    """

    t0: float
    rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        _check_rate(self.rate_hz)
        if not math.isfinite(self.t0):
            raise GaitInputError(f"start time must be finite, got {self.t0}")

    def __len__(self):
        return len(self.values)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.values)) / self.rate_hz

    def index_near(self, t: float) -> int:
        i = int(round((t - self.t0) * self.rate_hz))
        last = len(self.values) - 1
        i = i if i > 0 else 0  # min(max(i, 0), last) without two calls
        return i if i < last else last


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
    tolerance are an error, as are non-finite timestamps and a rate <= 0 or non-finite.
    """
    _check_rate(nominal_rate_hz)
    if not np.isfinite(t).all():
        raise GaitInputError(f"{label}: timestamps must be finite")
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


def _check_still(
    label: str, values: np.ndarray, limit: float, unit: str
) -> tuple[np.ndarray, np.ndarray]:
    """Raise CalibrationError unless one channel's standing window can give offsets.

    Returns the window's median, the centre of its MAD-based spread, and
    the window transposed (a channel per row) in some order within each row.
    """
    if len(values) < MIN_CALIB_SAMPLES:
        raise CalibrationError(
            f"standing window too short: {len(values)} {label} samples "
            f"(need >= {MIN_CALIB_SAMPLES})"
        )
    rows = values.T.copy()
    if not np.isfinite(rows).all():
        raise CalibrationError(f"{label}: standing window holds a NaN or inf sample")
    median = _median_rows(rows)
    # The deviations of the partitioned rows: the same values in another
    # order, so the same median.
    std = _MAD_TO_SIGMA * _median_rows(np.abs(rows - median[..., None]))
    if (std > limit).any():
        raise CalibrationError(
            f"{label} not still: std {std} {unit} exceeds {limit} {unit}"
        )
    return median, rows


def compute_offsets(imu: ImuStream | None, bend: BendStream | None) -> OffsetSet:
    """Derive per-channel offsets from a standing-still window.

    Medians reject occasional outlier samples. Accelerometer offsets are
    medians of the deviation from the (0, 0, 1) g gravity vector, so
    subtracting them preserves gravity on the vertical axis. Raises
    CalibrationError, naming the channel (accelerometer, gyroscope or bend
    sensor), if its window
    - holds fewer than MIN_CALIB_SAMPLES samples,
    - holds a NaN or inf sample, which would make its offset, and so every
      corrected sample of the channel, NaN, or
    - spreads more than the channel's STILL_STD_* bound: the subject moved.
    """
    offsets = OffsetSet()
    if imu is not None:
        _, accel_rows = _check_still("accelerometer", imu.accel, STILL_STD_ACCEL_G, "g")
        # The median of accel - g, which for an even-length window differs
        # in the last bit from the accel median minus g.
        offsets.accel_g = _median_rows(accel_rows - GRAVITY_G[:, None])
        offsets.gyro_dps, _ = _check_still("gyroscope", imu.gyro, STILL_STD_GYRO_DPS, "deg/s")
    if bend is not None:
        median, _ = _check_still("bend sensor", bend.angle_deg, STILL_STD_BEND_DEG, "deg")
        offsets.bend_deg = float(median)
    return offsets


# From this many rows on, apply_offsets subtracts column by column.
_COLUMNWISE_MIN_ROWS = 64


def _minus_columns(values: ArrayLike, offset: ArrayLike) -> np.ndarray:
    """values - offset, one column at a time for (N, C) values and a (C,) offset.

    Each column is one strided subtraction of a one-element array, so numpy
    runs its inner loop N long, where the (N, C) - (C,) broadcast runs it C
    long N times. The same operation on the same dtypes: the same bits.
    Other shapes take the broadcast.
    """
    values, offset = np.asarray(values), np.asarray(offset)
    if values.ndim != 2 or offset.shape != values.shape[1:]:
        return values - offset
    out = np.empty(values.shape, np.result_type(values, offset))
    for c in range(values.shape[1]):
        np.subtract(values[:, c], offset[c : c + 1], out=out[:, c])
    return out


def apply_offsets(
    imu: ImuStream | None, bend: BendStream | None, offsets: OffsetSet
) -> tuple[ImuStream | None, BendStream | None]:
    """Subtract calibration offsets; returns corrected copies.

    The IMU takes one of two paths by row count, with the same bits. From
    _COLUMNWISE_MIN_ROWS rows on (a whole recording), accel and gyro are
    subtracted column by column, several times faster than the broadcast.
    A shorter input (a live chunk holds about ten rows) keeps the one
    broadcast `accel - offset`, whose fixed cost is the lower.
    """
    imu_out = None
    if imu is not None:
        if len(imu.accel) < _COLUMNWISE_MIN_ROWS:
            accel, gyro = imu.accel - offsets.accel_g, imu.gyro - offsets.gyro_dps
        else:
            accel = _minus_columns(imu.accel, offsets.accel_g)
            gyro = _minus_columns(imu.gyro, offsets.gyro_dps)
        imu_out = ImuStream(imu.t, accel, gyro)
    bend_out = None
    if bend is not None:
        bend_out = BendStream(bend.t, bend.angle_deg - offsets.bend_deg)
    return imu_out, bend_out


def _check_factor(m: int) -> int:
    """The downsampling factor as an int; GaitInputError unless an integer >= 1."""
    try:
        m = operator.index(m)
    except TypeError:
        raise GaitInputError(f"downsampling factor must be an integer, got {m!r}") from None
    if m < 1:
        raise GaitInputError(f"downsampling factor must be >= 1, got {m}")
    return m


def smoothed_block(values: np.ndarray, m: int, k_start: int, k_stop: int) -> np.ndarray:
    """Filter outputs for output indices [k_start, k_stop) of a value buffer.

    Shared by the batch operation and the streaming decimator so that both
    produce bit-identical results: output k is the sum of the 2M input
    samples from M*k, reduced in np.add.reduce's order, divided by 2M.

    The live decimator calls this about four times per 40 ms chunk, mostly
    for one output, so the per-call cost dominates there. A float64 (N,)
    buffer, the only kind the chain passes, goes to the C kernel's `boxcar`
    where it loads, which reads the windows in place (a contiguous copy of
    other layouts first, so the bits do not depend on the layout). Any
    other shape or dtype, and every buffer where the kernel does not load,
    goes to `_boxcar_loop`, its numpy oracle; both take the same arguments
    and give the same bits. A buffer too short for output k_stop - 1, a
    negative k_start, indices that are not integers and a factor M that is
    not an integer >= 1 raise GaitInputError.
    """
    m = _check_factor(m)
    values = np.asarray(values)
    try:
        k_start, k_stop = operator.index(k_start), operator.index(k_stop)
    except TypeError:
        raise GaitInputError(
            f"output indices must be integers, got {k_start!r} and {k_stop!r}"
        ) from None
    if k_start < 0:
        raise GaitInputError(f"output indices start at 0, got k_start {k_start}")
    if k_stop <= k_start:
        return values[:0]
    hi = m * k_stop + m  # slice end of the last window
    if hi > len(values):
        raise GaitInputError(
            f"output {k_stop - 1} needs {hi} samples, the buffer holds {len(values)}"
        )
    if values.ndim == 1 and values.dtype == np.float64:
        kernel = orientation._kernel_module()
        if kernel is not None:
            out = np.empty(k_stop - k_start)
            kernel.boxcar(np.ascontiguousarray(values), out, m, k_start)
            return out
    out = np.empty((k_stop - k_start, *values.shape[1:]), np.result_type(values.dtype, 1.0))
    _boxcar_loop(values, out, m, k_start)
    return out


def _boxcar_loop(values, out, m, k_start):
    """The boxcar in numpy: the fallback and the oracle of the kernel's `boxcar`.

    Takes what the kernel's `boxcar` takes: the value buffer, the array
    that receives outputs [k_start, k_start + len(out)), the factor M and
    k_start. Lays the windows as one strided view over a contiguous copy of
    the samples they cover (no copy for contiguous input) and divides their
    np.add.reduce by 2M. A 1-D window is reduced in numpy's pairwise order,
    which the kernel reproduces; an (N, C) buffer's windows run along a
    strided axis, which numpy sums in order, so that input stays here.
    """
    seg = np.ascontiguousarray(values[m * k_start : m * (k_start + len(out)) + m])
    s = seg.strides
    window = np.ndarray(
        (len(out), *seg.shape[1:], 2 * m),
        seg.dtype,
        seg,
        strides=(m * s[0], *s[1:], s[0]),
    )
    np.divide(np.add.reduce(window, axis=-1), 2 * m, out=out)


def downsample_smooth(
    values: np.ndarray, m: int, rate_hz: float, t0: float = 0.0
) -> UniformSeries:
    """Decimate by M while averaging centered 2M-sample windows.

    `values` may be (N,) or (N, C). The output rate is rate_hz / M; output
    sample j corresponds to input index M*(j+1) - 1. Incomplete edge
    windows are dropped.
    """
    m = _check_factor(m)
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
