"""Sensor-stream preprocessing: standing-still offset calibration and the
downsample-and-smooth filter.

Each leg has both sensors, a thigh IMU and a knee bend sensor, and the
offset functions take the two together. A series is one float64 channel:
the filter takes a 1-D buffer, filters it as float64, rejects any other
shape and returns a 1-D series.

The filter averages a centered window of exactly 2M input samples while
decimating by M:

    out[k] = (1 / 2M) * sum(s[M*k : M*(k+2)])        (0-based slice)

Output k is stamped at input sample M*(k+1) - 1 (0-based), so the first and
last incomplete windows are dropped rather than padded. With the native
rates used here (IMU 250 Hz with M=10, bend sensor 100 Hz with M=4) both
streams come out at 25 Hz, comfortably above the <10 Hz content of gait.
`smoothed_block` sums the windows with the boxcar loop `boxcar` of
`gaitlab._kernel`, and `apply_offsets` subtracts with its row loop `offset`,
one call per sensor array, in C where the kernel loads and in numpy where it
does not. Each input is converted once and each output allocated once.

Offsets are per-channel medians over a standing-still window; for the
accelerometer the median is taken relative to the 1 g gravity vector so
that a calibrated, standing sensor reads exactly (0, 0, 1) g. Each window
is converted once to float64, and one call of the kernel's selection
`medians` per sensor gives every channel's middle pair and MAD-based
spread, in C where the kernel loads and in numpy where it does not, with
np.median's bits either way.
"""

from __future__ import annotations

import math
import operator
import warnings
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from . import _kernel
from .errors import CalibrationError, GaitInputError

GRAVITY_G = np.array([0.0, 0.0, 1.0])
_F64 = _kernel.F64

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
    """A uniform-rate series of one channel: `values` is 1-D.

    Sample k is stamped t0 + k / rate. A rate that is not finite and > 0, a
    start time that is not finite and values that are not 1-D raise
    GaitInputError. Frozen, so the checks hold for the series' life.
    """

    t0: float
    rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        _check_rate(self.rate_hz)
        if not math.isfinite(self.t0):
            raise GaitInputError(f"start time must be finite, got {self.t0}")
        # An array('d') is 1-D, and np.ndim reads one 50 times slower than an ndarray.
        if not isinstance(self.values, array) and np.ndim(self.values) != 1:
            raise GaitInputError(f"a series is one channel, got shape {np.shape(self.values)}")

    def __len__(self):
        return len(self.values)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.values)) / self.rate_hz

    def index_near(self, t: float) -> int:
        """The sample nearest t, rounded half to even and clamped to the series.

        The segment loops' rule for any t: -inf and NaN give sample 0 and
        +inf the last. Clamping the unrounded position as a float gives the
        same index as rounding first, and leaves round() only finite values.
        """
        x = (t - self.t0) * self.rate_hz
        last = len(self.values) - 1
        return (round(x) if x < last else last) if x > 0.0 else 0


@dataclass
class OffsetSet:
    """Per-channel offsets to subtract from raw samples of one leg."""

    accel_g: np.ndarray
    gyro_dps: np.ndarray
    bend_deg: float


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
    label: str, values: ArrayLike, columns: tuple[int, ...], limit: float, unit: str
) -> tuple[list, list, int]:
    """Raise CalibrationError unless one sensor's standing window can give offsets.

    The window is converted once to float64 and must be (N, *columns):
    GaitInputError otherwise. One call of the kernel's `medians` checks it
    finite and gives each channel's middle pair and MAD-based spread.
    Returns the lists of the channels' lower and upper middle values and N,
    from which `_kernel.pair_median` takes the median of a channel, or of
    the channel minus a constant.
    """
    try:
        values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GaitInputError(f"{label} window must be an array of numbers: {exc}") from None
    shape = values.shape
    if not shape or shape[1:] != columns:
        want = f"(N, {columns[0]})" if columns else "(N,)"
        raise GaitInputError(f"{label} window must be {want}, got shape {shape}")
    if len(values) < MIN_CALIB_SAMPLES:
        raise CalibrationError(
            f"standing window too short: {len(values)} {label} samples "
            f"(need >= {MIN_CALIB_SAMPLES})"
        )
    stats = _kernel.loops().medians(values)
    if stats is None:
        raise CalibrationError(f"{label}: standing window holds a NaN or inf sample")
    lo, hi, mad = stats
    if any(_MAD_TO_SIGMA * m > limit for m in mad):
        std = _MAD_TO_SIGMA * np.array(mad if columns else mad[0])
        raise CalibrationError(
            f"{label} not still: std {std} {unit} exceeds {limit} {unit}"
        )
    return lo, hi, len(values)


def compute_offsets(imu: ImuStream, bend: BendStream) -> OffsetSet:
    """Derive one leg's per-channel offsets from its standing-still windows.

    Takes both sensors of the leg: the IMU's and the bend sensor's windows,
    each converted once to float64, so a list or a float32 or integer
    window gives its float64 copy's offsets. Medians reject occasional
    outlier samples. Accelerometer offsets are medians of the deviation
    from the (0, 0, 1) g gravity vector, so subtracting them preserves
    gravity on the vertical axis. Raises GaitInputError, naming the sensor,
    unless the accelerometer and gyroscope windows are (N, 3) and the bend
    sensor's is (N,) arrays of numbers. Raises CalibrationError, naming the
    channel (accelerometer, gyroscope or bend sensor), if its window
    - holds fewer than MIN_CALIB_SAMPLES samples,
    - holds a NaN or inf sample, which would make its offset, and so every
      corrected sample of the channel, NaN, or
    - spreads more than the channel's STILL_STD_* bound: the subject moved.
    """
    lo, hi, n = _check_still("accelerometer", imu.accel, (3,), STILL_STD_ACCEL_G, "g")
    # x - g rounds monotonically in x, so the middle pair of accel - g is
    # the accel's middle pair minus g, and this is np.median(accel - g).
    accel = [_kernel.pair_median(a - g, b - g, n) for a, b, g in zip(lo, hi, GRAVITY_G.tolist())]
    lo, hi, n = _check_still("gyroscope", imu.gyro, (3,), STILL_STD_GYRO_DPS, "deg/s")
    gyro = [_kernel.pair_median(a, b, n) for a, b in zip(lo, hi)]
    lo, hi, n = _check_still("bend sensor", bend.angle_deg, (), STILL_STD_BEND_DEG, "deg")
    return OffsetSet(np.array(accel), np.array(gyro), _kernel.pair_median(lo[0], hi[0], n))


def apply_offsets(
    imu: ImuStream, bend: BendStream, offsets: OffsetSet
) -> tuple[ImuStream, BendStream]:
    """Subtract one leg's calibration offsets from both of its sensors.

    Returns corrected float64 copies of the IMU and bend streams, live
    chunk and whole recording alike. Each sensor array and its offset are
    converted once to C-contiguous float64 (no copy for the arrays the
    chain passes; a float offset, the bend's, is passed as it is), and one
    call of the kernel's row loop `offset` writes `values - offset` into
    `_kernel.empty`: numpy's broadcast's bits, one subtraction per element.
    An offset not of one row's shape raises the loop's ValueError. From
    `_kernel.BLOCK_MIN_BYTES` on (a whole recording's accel, gyro and, if
    long enough, bend), an output is memory an earlier output released: it
    does not own it, its `.base` chain ending at a recycled block, but it
    is writable, C-contiguous and pickles as any other, and every element
    is written, so its bits are those of a new array.
    """
    # One frame for all three: a live chunk's subtractions cost less than a call.
    loop = _kernel.loops().offset
    empty = _kernel.empty
    values = np.asarray(imu.accel, dtype=_F64, order="C")
    accel = empty(values.shape)
    loop(values, np.asarray(offsets.accel_g, dtype=_F64, order="C"), accel)
    values = np.asarray(imu.gyro, dtype=_F64, order="C")
    gyro = empty(values.shape)
    loop(values, np.asarray(offsets.gyro_dps, dtype=_F64, order="C"), gyro)
    values = np.asarray(bend.angle_deg, dtype=_F64, order="C")
    angle = empty(values.shape)
    offset = offsets.bend_deg
    if not isinstance(offset, float):
        offset = np.asarray(offset, dtype=_F64, order="C")
    loop(values, offset, angle)
    return ImuStream(imu.t, accel, gyro), BendStream(bend.t, angle)


def _check_factor(m: int) -> int:
    """The downsampling factor as an int; GaitInputError unless an integer >= 1."""
    try:
        m = operator.index(m)
    except TypeError:
        raise GaitInputError(f"downsampling factor must be an integer, got {m!r}") from None
    if m < 1:
        raise GaitInputError(f"downsampling factor must be >= 1, got {m}")
    return m


def smoothed_t0(t0: float, m: int, rate_hz: float) -> float:
    """Start time of the filter's output for input that starts at `t0`.

    Output 0 is stamped at input sample M - 1. The one home of the stamp
    rule: `downsample_smooth` and the streaming decimator of
    `gaitlab.pipeline.StreamingAnalyzer` both read it. No checks: callers
    check the rate and the factor first.
    """
    return t0 + (m - 1) / rate_hz


def smoothed_block(values: np.ndarray, m: int, k_start: int, k_stop: int) -> np.ndarray:
    """Filter outputs for output indices [k_start, k_stop) of a 1-D value buffer.

    Shared by the batch operation and the streaming decimator of
    `gaitlab.pipeline.StreamingAnalyzer` so that both produce bit-identical
    results: output k is the sum of the 2M input samples from M*k, reduced
    in np.add.reduce's order, divided by 2M.

    The buffer is one channel, converted once to a C-contiguous float64
    array (no copy for the buffers the chain passes), so its layout does
    not change the bits. The streaming decimator calls this about four
    times per 40 ms chunk, mostly for one output, so the per-call cost
    dominates there. The windows are summed by `_kernel.loops().boxcar`,
    with the same bits in C and in numpy. A buffer that is not 1-D (a
    scalar too, even for an empty range), a buffer too short for output
    k_stop - 1, a negative k_start, indices that are not integers and a
    factor M that is not an integer >= 1 raise GaitInputError.
    """
    # operator.index only for what is not an int (four calls a live chunk).
    if m.__class__ is not int or m < 1:
        m = _check_factor(m)
    # Not np.ascontiguousarray, which reads a scalar as a one-sample buffer.
    values = np.asarray(values, dtype=_F64, order="C")
    if values.ndim != 1:
        raise GaitInputError(f"a series is one channel, got a buffer of shape {values.shape}")
    if k_start.__class__ is not int or k_stop.__class__ is not int:
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
    out = np.empty(k_stop - k_start)
    _kernel.loops().boxcar(values, out, m, k_start)
    return out


def downsample_smooth(
    values: np.ndarray, m: int, rate_hz: float, t0: float = 0.0
) -> UniformSeries:
    """Decimate a 1-D series by M while averaging centered 2M-sample windows.

    `values` is one channel, (N,); it is filtered as float64, and any other
    shape, a scalar too, raises GaitInputError. The output rate is
    rate_hz / M; output sample j corresponds to input index M*(j+1) - 1.
    Incomplete edge windows are dropped. A rate that is not finite and > 0
    raises GaitInputError.
    """
    _check_rate(rate_hz)  # before the output's start time divides by it
    m = _check_factor(m)
    values = np.asarray(values, dtype=np.float64, order="C")
    if values.ndim != 1:
        raise GaitInputError(f"a series is one channel, got a stream of shape {values.shape}")
    n = len(values)
    if n == 0:
        raise GaitInputError("empty stream")
    if n < 2 * m:
        raise GaitInputError(
            f"stream of {n} samples is shorter than one 2M={2 * m} window"
        )
    out = smoothed_block(values, m, 0, (n - 2 * m) // m + 1)
    return UniformSeries(t0=smoothed_t0(t0, m, rate_hz), rate_hz=rate_hz / m, values=out)
