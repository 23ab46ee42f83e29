"""The calls a live chunk makes keep every conversion and every check.

A 40 ms chunk reaches `apply_offsets`, `remap_mounting`, `madgwick_batch`,
`smoothed_block`, `DerivativeStream.feed` and the minima detector's
`extend_series` and `feed_derivative` with a few samples each, so these
calls are written to spend little beyond their arithmetic. On the C kernel
and on the Python loops, a list, float32 or integer input, and a
Fortran-ordered or strided (N, 3) one, must give the bits that its float64
C-contiguous copy gives, and each malformed input must raise the error type
and message it always raised.
"""

import math
import re

import numpy as np
import pytest

from gaitlab.errors import GaitInputError
from gaitlab.events import DerivativeStream, EventConfig, MinimaDetector
from gaitlab.orientation import filter_init, madgwick_batch, remap_mounting
from gaitlab.signal import BendStream, ImuStream, OffsetSet, apply_offsets, smoothed_block

DT = 0.004
RATE = 25.0
_rng = np.random.default_rng(31)
ROWS = _rng.normal(0.0, 2.0, (10, 3))  # one chunk of accel or gyro
ACCEL = ROWS + [0.0, 0.0, 1.0]
SERIES = 10.0 * np.cos(np.linspace(0.0, 4.0 * np.pi, 12)) + _rng.normal(0.0, 0.5, 12)
OFFSETS = OffsetSet(np.array([0.01, -0.02, 0.03]), np.array([0.5, -0.25, 0.125]), 0.3)


def layouts(values):
    """`values` as the inputs that must be read as their float64 C-contiguous copies."""
    out = {
        "list": values.tolist(),
        "float32": values.astype(np.float32),
        "int": np.round(100.0 * values).astype(np.int64),
        "strided": np.repeat(values, 2, axis=0)[::2],
    }
    if values.ndim == 2:
        out["fortran"] = np.asfortranarray(values)
    return out


def bits(result):
    """Every float of a call's result by its bits, arrays and containers opened."""
    if isinstance(result, (ImuStream, BendStream)):
        return bits(tuple(vars(result).values()))
    if isinstance(result, (list, tuple)):
        return [bits(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes().hex()
    return float(result).hex() if isinstance(result, float) else result


def imu(accel=ACCEL, gyro=ROWS):
    return ImuStream(np.arange(10) * DT, accel, gyro)


def bend(angle=SERIES[:4]):
    return BendStream(np.arange(len(angle)) / 100.0, angle)


def feed(x):
    stream = DerivativeStream(RATE)
    return stream.feed(x[:3]), stream.feed(x[3:]), stream.finalize()


def detector(series=SERIES):
    det = MinimaDetector("hip_L", 0.0, RATE, EventConfig(prominence_deg=0.5, refractory_s=0.0))
    det.extend_series(series)
    return det


def extend(x):
    det = detector(SERIES[:2])
    det.extend_series(x)
    return det.values.tobytes()


def feed_derivative(x):
    det = detector(np.concatenate([SERIES, SERIES]))
    found = det.feed_derivative(x[:5]) + det.feed_derivative(x[5:])
    return found, det._i, det._d_prev, det.pending, det.run_max, det.last_accept_t


ROW_CALLS = {
    "apply_offsets_accel": lambda x: apply_offsets(imu(accel=x), bend(), OFFSETS),
    "apply_offsets_gyro": lambda x: apply_offsets(imu(gyro=x), bend(), OFFSETS),
    "remap_mounting": lambda x: remap_mounting(x, "x"),
    "madgwick_batch_accel": lambda x: madgwick_batch(x, ROWS, DT, filter_init()),
    "madgwick_batch_gyro": lambda x: madgwick_batch(ACCEL, x, DT, filter_init()),
}
SERIES_CALLS = {
    "apply_offsets_bend": lambda x: apply_offsets(imu(), bend(x), OFFSETS),
    "apply_offsets_offsets": lambda x: apply_offsets(
        imu(), bend(), OffsetSet(x[:3], x[3:6], OFFSETS.bend_deg)
    ),
    "smoothed_block": lambda x: smoothed_block(x, 2, 1, 5),
    "DerivativeStream.feed": feed,
    "MinimaDetector.extend_series": extend,
    "MinimaDetector.feed_derivative": lambda x: feed_derivative(
        np.asarray(x, dtype=np.float64) / 10.0
    ),
}


@pytest.mark.parametrize(
    "call, base",
    [(c, ROWS) for c in ROW_CALLS] + [(c, SERIES) for c in SERIES_CALLS],
    ids=[*ROW_CALLS, *SERIES_CALLS],
)
def test_inputs_read_as_their_float64_copies(call, base, each_path):
    fn = {**ROW_CALLS, **SERIES_CALLS}[call]
    for path in each_path():
        for layout, x in layouts(base).items():
            want = bits(fn(np.array(x, dtype=np.float64, order="C")))
            assert bits(fn(x)) == want, f"{path}, {layout}"


def test_numpy_integer_factor_and_indices(each_path):
    for path in each_path():
        want = bits(smoothed_block(SERIES, 2, 1, 5))
        for m, k_start, k_stop in [
            (np.int64(2), 1, 5), (2, np.int32(1), 5), (2, 1, np.uint8(5)),
            (np.int16(2), np.int64(1), np.int64(5)),
        ]:
            assert bits(smoothed_block(SERIES, m, k_start, k_stop)) == want, path


def test_frontier_before_and_after_the_first_derivatives(each_path):
    for path in each_path():
        det = detector()
        det.t0 = 2.0
        assert det.frontier_t == 2.0, path
        det.feed_derivative(np.array([0.5]))
        assert (det._i, det.pending, det.frontier_t) == (1, -1, 2.0), path
        det.feed_derivative(np.array([0.5, 0.5]))
        assert (det._i, det.pending, det.frontier_t) == (3, -1, 2.0 + 2 / RATE), path


def finalized_stream():
    stream = DerivativeStream(RATE)
    stream.feed(SERIES)
    stream.finalize()
    return stream


# (call, error type, message), with the message by path where the kernel's
# row loop and its twin word it differently.
OFFSET_SHAPE = {
    "kernel": "offset needs doubles: an offset of one row's shape and an out of the values' shape",
    "python_loops": "offset needs an offset of shape {} and an out of shape {}, got {} and {}",
}
ERRORS = {
    "apply_offsets_0d": (
        lambda: apply_offsets(imu(accel=np.float64(1.0)), bend(), OFFSETS), ValueError,
        {**OFFSET_SHAPE, "python_loops": OFFSET_SHAPE["python_loops"].format((), (), (3,), ())},
    ),
    "apply_offsets_2d_bend": (
        lambda: apply_offsets(imu(), bend(np.zeros((4, 1))), OFFSETS), ValueError,
        {**OFFSET_SHAPE, "python_loops": OFFSET_SHAPE["python_loops"].format(
            (1,), (4, 1), (), (4, 1))},
    ),
    "apply_offsets_wrong_width": (
        lambda: apply_offsets(imu(gyro=np.zeros((10, 2))), bend(), OFFSETS), ValueError,
        {**OFFSET_SHAPE, "python_loops": OFFSET_SHAPE["python_loops"].format(
            (2,), (10, 2), (3,), (10, 2))},
    ),
    "remap_mounting_0d": (
        lambda: remap_mounting(1.0, "y"), GaitInputError, "vectors must be (N, 3), got ()",
    ),
    "remap_mounting_1d": (
        lambda: remap_mounting(np.zeros(3), "y"), GaitInputError,
        "vectors must be (N, 3), got (3,)",
    ),
    "remap_mounting_wrong_width": (
        lambda: remap_mounting(np.zeros((10, 2)), "y"), GaitInputError,
        "vectors must be (N, 3), got (10, 2)",
    ),
    "remap_mounting_unknown_mount": (
        lambda: remap_mounting(ROWS, "z"), GaitInputError,
        "unsupported mounting axis 'z'; expected one of ('y', '-y', 'x', '-x')",
    ),
    "madgwick_batch_0d": (
        lambda: madgwick_batch(1.0, ROWS, DT, filter_init()), GaitInputError,
        "accel and gyro must both be (N, 3) with the same N, got () and (10, 3)",
    ),
    "madgwick_batch_wrong_width": (
        lambda: madgwick_batch(ACCEL, np.zeros((10, 2)), DT, filter_init()), GaitInputError,
        "accel and gyro must both be (N, 3) with the same N, got (10, 3) and (10, 2)",
    ),
    **{
        f"madgwick_batch_dt_{dt}": (
            lambda dt=dt: madgwick_batch(ACCEL, ROWS, dt, filter_init()), GaitInputError,
            f"dt must be finite and > 0, got {dt}",
        )
        for dt in (0, 0.0, -DT, math.nan, math.inf, -math.inf, np.float64(math.nan))
    },
    "smoothed_block_0d": (
        lambda: smoothed_block(1.0, 2, 0, 1), GaitInputError,
        "a series is one channel, got a buffer of shape ()",
    ),
    "smoothed_block_2d": (
        lambda: smoothed_block(np.zeros((12, 1)), 2, 0, 1), GaitInputError,
        "a series is one channel, got a buffer of shape (12, 1)",
    ),
    "smoothed_block_factor_0": (
        lambda: smoothed_block(SERIES, 0, 0, 1), GaitInputError,
        "downsampling factor must be >= 1, got 0",
    ),
    "smoothed_block_float_factor": (
        lambda: smoothed_block(SERIES, 2.0, 0, 1), GaitInputError,
        "downsampling factor must be an integer, got 2.0",
    ),
    "smoothed_block_float_index": (
        lambda: smoothed_block(SERIES, 2, 1.0, 4), GaitInputError,
        "output indices must be integers, got 1.0 and 4",
    ),
    "smoothed_block_negative_index": (
        lambda: smoothed_block(SERIES, 2, np.int64(-1), 4), GaitInputError,
        "output indices start at 0, got k_start -1",
    ),
    "smoothed_block_past_the_buffer": (
        lambda: smoothed_block(SERIES, 2, 0, 6), GaitInputError,
        "output 5 needs 14 samples, the buffer holds 12",
    ),
    "DerivativeStream.feed_0d": (
        lambda: DerivativeStream(RATE).feed(1.0), GaitInputError,
        "a series is one channel, got samples of shape ()",
    ),
    "DerivativeStream.feed_2d": (
        lambda: DerivativeStream(RATE).feed(np.zeros((5, 2))), GaitInputError,
        "a series is one channel, got samples of shape (5, 2)",
    ),
    "DerivativeStream.feed_after_finalize": (
        lambda: finalized_stream().feed(SERIES), GaitInputError,
        "derivative stream fed after finalize",
    ),
    "MinimaDetector.extend_series_0d": (
        lambda: detector().extend_series(1.0), GaitInputError,
        "hip_L: a series is one channel, got values of shape ()",
    ),
    "MinimaDetector.extend_series_2d": (
        lambda: detector().extend_series(np.zeros((5, 2))), GaitInputError,
        "hip_L: a series is one channel, got values of shape (5, 2)",
    ),
    "MinimaDetector.feed_derivative_0d": (
        lambda: detector().feed_derivative(1.0), GaitInputError,
        "hip_L: derivatives are one channel, got ()",
    ),
    "MinimaDetector.feed_derivative_2d": (
        lambda: detector().feed_derivative(np.zeros((5, 2))), GaitInputError,
        "hip_L: derivatives are one channel, got (5, 2)",
    ),
}


@pytest.mark.parametrize("case", list(ERRORS))
def test_malformed_inputs_raise_as_before(case, each_path):
    call, error, message = ERRORS[case]
    for path in each_path():
        want = message[path] if isinstance(message, dict) else message
        with pytest.raises(error, match=f"^{re.escape(want)}$"):
            call()
