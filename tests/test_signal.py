import math
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gaitlab import _kernel
from gaitlab._kernel import _boxcar_loop, _offset_loop
from gaitlab.errors import CalibrationError, GaitInputError
from gaitlab.signal import (
    BendStream,
    ImuStream,
    OffsetSet,
    UniformSeries,
    apply_offsets,
    check_stream_timing,
    compute_offsets,
    _median_rows,
    downsample_smooth,
    smoothed_block,
)


def _median(values):
    """np.median(values, axis=0) through `_median_rows`, one channel per row."""
    return _median_rows(values.T.copy())


def still_imu(n=100, accel=(0.0, 0.0, 1.0), gyro=(0.0, 0.0, 0.0), rate=250.0):
    t = np.arange(n) / rate
    return ImuStream(t, np.tile(accel, (n, 1)).astype(float), np.tile(gyro, (n, 1)).astype(float))


def still_bend(n=100, angle=0.0, rate=100.0):
    return BendStream(np.arange(n) / rate, np.full(n, float(angle)))


class TestComputeOffsets:
    def test_constant_bend_offset(self):
        off = compute_offsets(still_imu(), still_bend(angle=3.0))
        assert off.bend_deg == 3.0
        _, corrected = apply_offsets(still_imu(), still_bend(angle=3.0), off)
        assert np.all(corrected.angle_deg == 0.0)

    def test_median_rejects_outlier(self):
        angles = np.array([2.9, 3.0, 3.1] * 8 + [100.0])
        off = compute_offsets(still_imu(), BendStream(np.arange(25) / 100.0, angles))
        assert off.bend_deg == pytest.approx(3.0)

    def test_gravity_axis_preserved(self):
        off = compute_offsets(still_imu(accel=(0.0, 0.0, 1.02)), still_bend())
        assert off.accel_g[2] == pytest.approx(0.02)
        corrected, _ = apply_offsets(still_imu(accel=(0.0, 0.0, 1.02)), still_bend(), off)
        assert corrected.accel[0, 2] == pytest.approx(1.0)

    def test_nongravity_axes_zeroed(self):
        off = compute_offsets(still_imu(accel=(0.015, -0.02, 1.0)), still_bend())
        assert off.accel_g[0] == pytest.approx(0.015)
        assert off.accel_g[1] == pytest.approx(-0.02)

    def test_gyro_offsets(self):
        off = compute_offsets(still_imu(gyro=(0.5, -0.8, 0.1)), still_bend())
        assert off.gyro_dps == pytest.approx([0.5, -0.8, 0.1])

    def test_idempotent_on_corrected_window(self):
        raw = still_imu(accel=(0.01, 0.0, 1.03), gyro=(1.0, 0.0, -0.5))
        off = compute_offsets(raw, still_bend(angle=-4.5))
        corrected, corrected_bend = apply_offsets(raw, still_bend(angle=-4.5), off)
        off2 = compute_offsets(corrected, corrected_bend)
        assert np.all(np.abs(off2.accel_g) < 1e-9)
        assert np.all(np.abs(off2.gyro_dps) < 1e-9)
        assert off2.bend_deg == 0.0

    def test_window_too_short(self):
        with pytest.raises(CalibrationError, match="accelerometer"):
            compute_offsets(still_imu(n=10), still_bend())
        with pytest.raises(CalibrationError, match="bend sensor"):
            compute_offsets(still_imu(), still_bend(n=24))

    def test_moving_subject_rejected(self):
        rng = np.random.default_rng(0)
        t = np.arange(200) / 100.0
        swinging = BendStream(t, 20.0 * np.sin(2 * np.pi * t) + rng.normal(0, 0.1, 200))
        with pytest.raises(CalibrationError, match="bend sensor"):
            compute_offsets(still_imu(), swinging)

    def test_moving_gyro_rejected(self):
        imu = still_imu(n=200)
        imu.gyro[:, 1] = 30.0 * np.sin(np.arange(200) / 10.0)
        with pytest.raises(CalibrationError, match="gyroscope"):
            compute_offsets(imu, still_bend())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("channel", ["accelerometer", "gyroscope", "bend sensor"])
    def test_non_finite_sample_rejected(self, channel, bad):
        # A NaN spread compares False against the stillness bound, and a
        # lone inf leaves the median spread at 0, so neither trips it.
        imu, bend = still_imu(), still_bend()
        if channel == "accelerometer":
            imu.accel[40, 0] = bad
        elif channel == "gyroscope":
            imu.gyro[40, 1] = bad
        else:
            bend.angle_deg[40] = bad
        with pytest.raises(CalibrationError, match=channel):
            compute_offsets(imu, bend)

    @pytest.mark.parametrize(
        "sensor, shape",
        [("accelerometer", (30,)), ("accelerometer", (30, 2)), ("accelerometer", (30, 3, 1)),
         ("gyroscope", (30,)), ("gyroscope", (30, 4)), ("bend sensor", (30, 2)),
         ("bend sensor", (30, 1)), ("bend sensor", ())],
        ids=["accel_30", "accel_30x2", "accel_30x3x1", "gyro_30", "gyro_30x4", "bend_30x2",
             "bend_30x1", "bend_scalar"],
    )
    def test_window_of_the_wrong_shape_rejected(self, sensor, shape):
        # A 1-D accelerometer window of ones used to give (3,) offsets
        # [1, 1, 0] without an error; a (30, 2) one failed with a bare
        # ValueError from broadcasting, a (30, 2) bend window with a bare
        # TypeError from float().
        imu, bend = still_imu(n=30), still_bend(n=30)
        window = np.ones(shape)
        if sensor == "accelerometer":
            imu.accel = window
        elif sensor == "gyroscope":
            imu.gyro = window
        else:
            bend.angle_deg = window
        with pytest.raises(GaitInputError, match=rf"{sensor} window must be \(N,"):
            compute_offsets(imu, bend)


def median_window(rng, n, channels):
    """A window with ties and signed zeros: few distinct values, -0.0 among them."""
    levels = np.array([0.0, -0.0, 0.25, -0.25, 1.0, 5e-324, -1e-300])
    shape = (n,) if channels is None else (n, channels)
    values = rng.choice(levels, size=shape)
    noisy = rng.random(shape) < 0.3
    return np.where(noisy, rng.normal(0.0, 0.1, shape), values)


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 25, 200, 501])
    @pytest.mark.parametrize("channels", [None, 1, 3])
    def test_median_gives_np_median_bits(self, n, channels):
        rng = np.random.default_rng(n * 10 + (channels or 0))
        for _ in range(50):
            values = median_window(rng, n, channels)
            got, want = _median(values), np.median(values, axis=0)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_even_window_needs_both_middle_values(self):
        # A shuffle of 0..399 for which numpy's introselect, partitioning at
        # index 200 alone, leaves a value below 199 at index 199; random
        # windows almost never do. Only the partition at (199, 200) puts
        # both middle values in place for the median 199.5.
        values = np.random.default_rng(4).permutation(400).astype(float)
        assert _median(values) == 199.5
        assert _median(np.stack([values, values[::-1]], axis=1)).tolist() == [199.5, 199.5]

    @pytest.mark.parametrize("n", [100, 101])
    def test_offsets_are_the_np_median_offsets(self, n):
        rng = np.random.default_rng(n)
        imu = still_imu(n=n)
        imu.accel += median_window(rng, n, 3) * 0.01
        imu.gyro += median_window(rng, n, 3)
        bend = still_bend(n=n)
        bend.angle_deg += median_window(rng, n, None)
        off = compute_offsets(imu, bend)
        want_accel = np.median(imu.accel - np.array([0.0, 0.0, 1.0]), axis=0)
        assert off.accel_g.tobytes() == want_accel.tobytes()
        assert off.gyro_dps.tobytes() == np.median(imu.gyro, axis=0).tobytes()
        assert type(off.bend_deg) is float
        assert np.float64(off.bend_deg).tobytes() == np.median(bend.angle_deg).tobytes()


class TestDownsampleSmooth:
    def test_constant_stream(self):
        out = downsample_smooth(np.full(100, 7.5), m=5, rate_hz=100.0)
        assert np.allclose(out.values, 7.5)

    def test_worked_window_example(self):
        out = downsample_smooth(np.array([1.0, 2, 3, 4, 5, 6]), m=2, rate_hz=100.0)
        assert out.values[0] == pytest.approx(2.5)
        assert out.values[1] == pytest.approx(4.5)

    def test_output_rates_meet_at_25hz(self):
        imu = downsample_smooth(np.zeros(2500), m=10, rate_hz=250.0)
        bend = downsample_smooth(np.zeros(1000), m=4, rate_hz=100.0)
        assert imu.rate_hz == pytest.approx(25.0)
        assert bend.rate_hz == pytest.approx(25.0)

    def test_every_output_averages_2m_samples(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=101)
        for m in (1, 2, 4, 10):
            out = downsample_smooth(s, m=m, rate_hz=100.0)
            n_out = (len(s) - 2 * m) // m + 1
            assert len(out) == n_out
            for j in range(n_out):
                window = s[m * j : m * j + 2 * m]
                assert len(window) == 2 * m
                assert out.values[j] == pytest.approx(window.mean(), abs=1e-12)

    def test_timestamps_uniform(self):
        out = downsample_smooth(np.zeros(100), m=4, rate_hz=100.0, t0=2.0)
        assert out.t0 == pytest.approx(2.0 + 3 / 100.0)
        assert np.allclose(np.diff(out.t), 4 / 100.0)

    def test_multichannel(self):
        # A series is one channel: an (N, C) stream is rejected, not
        # filtered column by column.
        s = np.stack([np.arange(40.0), np.arange(40.0) * 2], axis=1)
        with pytest.raises(GaitInputError, match="one channel"):
            downsample_smooth(s, m=2, rate_hz=100.0)

    @pytest.mark.parametrize("rate", [0.0, -100.0, math.nan, math.inf])
    def test_bad_rate_rejected(self, rate):
        # A rate of 0 used to raise a bare ZeroDivisionError from the
        # output's start time.
        for m in (1, 4):
            with pytest.raises(GaitInputError, match="rate must be finite and > 0"):
                downsample_smooth(np.zeros(40), m, rate)

    @pytest.mark.parametrize("kernel", ["as_built", "none"])
    def test_scalar_stream_rejected(self, kernel, python_loops):
        # Used to fail with a bare TypeError from len().
        if kernel == "none":
            python_loops()
        for value in (np.float64(3.0), 3.0, np.array(3.0)):
            with pytest.raises(GaitInputError, match="one channel"):
                downsample_smooth(value, 4, 100.0)

    def test_gait_band_preserved(self):
        # 1 Hz sinusoid sampled at 250 Hz, M=10: amplitude loss < 5%.
        t = np.arange(0, 10, 1 / 250.0)
        s = np.sin(2 * np.pi * 1.0 * t)
        out = downsample_smooth(s, m=10, rate_hz=250.0)
        assert out.values.max() > 0.95

    def test_stream_too_short(self):
        with pytest.raises(GaitInputError):
            downsample_smooth(np.zeros(19), m=10, rate_hz=250.0)
        with pytest.raises(GaitInputError):
            downsample_smooth(np.zeros(0), m=1, rate_hz=250.0)
        with pytest.raises(GaitInputError):
            downsample_smooth(np.zeros(10), m=0, rate_hz=250.0)

    @pytest.mark.parametrize("m", [2.5, 4.0, "4", None])
    def test_factor_that_is_not_an_integer_rejected(self, m):
        with pytest.raises(GaitInputError, match="integer"):
            downsample_smooth(np.zeros(100), m=m, rate_hz=100.0)

    def test_numpy_integer_factor_accepted(self):
        values = np.random.default_rng(8).normal(size=100)
        want = downsample_smooth(values, m=4, rate_hz=100.0)
        got = downsample_smooth(values, m=np.int64(4), rate_hz=100.0)
        assert got.t0 == want.t0 and got.rate_hz == want.rate_hz
        assert got.values.tobytes() == want.values.tobytes()


def smoothed_block_oracle(values, m, k_start, k_stop):
    """The slow path: a general sliding-window view, every Mth window, mean."""
    if k_stop <= k_start:
        return values[:0]
    window = sliding_window_view(values[m * k_start : m * k_stop + m], 2 * m, axis=0)
    return window[::m].mean(axis=-1)


# The window sizes of the boxcar parity tests: in-order sums (2M < 8), the
# eight accumulators with and without a remainder, and a split at 2M > 128.
BOXCAR_M = [1, 2, 3, 4, 10, 64, 65, 70]


class TestSmoothedBlock:
    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(4)
        for case in range(400):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(2 * m, 300))
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 4)
            n_out = (n - 2 * m) // m + 1
            k_start = int(rng.integers(0, n_out + 1))
            k_stop = int(rng.integers(k_start, n_out + 1))
            got = smoothed_block(values, m, k_start, k_stop)
            want = smoothed_block_oracle(values, m, k_start, k_stop)
            assert got.shape == want.shape, f"case {case}"
            assert np.array_equal(got, want), f"case {case}"

    def test_one_output_blocks_match_batch(self):
        # The live decimator asks for one output at a time; concatenated,
        # those blocks are the batch filter's output bit for bit.
        rng = np.random.default_rng(5)
        for m, n in ((10, 1500), (4, 600), (3, 200)):
            values = rng.normal(size=n) * 40.0
            batch = downsample_smooth(values, m=m, rate_hz=100.0).values
            blocks = [smoothed_block(values, m, k, k + 1) for k in range(len(batch))]
            assert np.array_equal(np.concatenate(blocks), batch), f"m={m}"

    def test_memory_layout_does_not_change_bits(self):
        rng = np.random.default_rng(6)
        wide = rng.normal(size=(400, 3)) * 25.0
        want = smoothed_block(wide[:, 0].copy(), 10, 0, 39)
        for values in (wide[:, 0], np.asfortranarray(wide)[:, 0], np.repeat(wide[:, 0], 2)[::2]):
            assert smoothed_block(values, 10, 0, 39).tobytes() == want.tobytes()

    def test_range_past_buffer_rejected(self):
        with pytest.raises(GaitInputError):
            smoothed_block(np.zeros(30), 10, 0, 5)
        with pytest.raises(GaitInputError):
            smoothed_block(np.zeros(30), 10, 2, 3)

    def test_negative_start_rejected(self):
        # Output -1 has no window; it used to come back as output 0, read
        # through a zero-length slice.
        values = np.arange(100.0) + 1000.0
        for k_start, k_stop in ((-1, 2), (-3, -1), (-1, -1)):
            with pytest.raises(GaitInputError, match="k_start"):
                smoothed_block(values, 4, k_start, k_stop)

    @pytest.mark.parametrize("m", [2.5, 0, -1])
    def test_bad_factor_rejected(self, m):
        with pytest.raises(GaitInputError, match="factor"):
            smoothed_block(np.arange(100.0), m, 0, 2)

    def test_numpy_integer_arguments_accepted(self):
        values = np.arange(100.0)
        want = smoothed_block(values, 4, 1, 5)
        got = smoothed_block(values, np.int64(4), np.int64(1), np.int64(5))
        assert got.tobytes() == want.tobytes()

    def test_empty_range(self):
        for values in (np.arange(50.0), np.arange(50)):
            for k_start, k_stop in ((3, 3), (4, 2)):
                got = smoothed_block(values, 5, k_start, k_stop)
                assert got.shape == (0,)
                assert got.dtype == np.float64

    @pytest.mark.parametrize(
        "shape", [(100, 1), (100, 2), (2, 100), (10, 10, 1)], ids=["100x1", "100x2", "2x100", "10x10x1"]
    )
    @pytest.mark.parametrize("kernel", ["as_built", "none"])
    def test_multichannel_buffer_rejected(self, shape, kernel, python_loops):
        if kernel == "none":
            python_loops()
        for k_start, k_stop in ((0, 2), (3, 3)):
            with pytest.raises(GaitInputError, match="one channel"):
                smoothed_block(np.zeros(shape), 4, k_start, k_stop)

    @pytest.mark.parametrize("kernel", ["as_built", "none"])
    def test_scalar_buffer_rejected(self, kernel, python_loops):
        # A scalar used to be read as a one-sample buffer: an empty range
        # returned an empty array.
        if kernel == "none":
            python_loops()
        for value in (5.0, np.float64(5.0), np.array(5.0)):
            for k_start, k_stop in ((0, 0), (0, 1)):
                with pytest.raises(GaitInputError, match="one channel"):
                    smoothed_block(value, 1, k_start, k_stop)

    @pytest.mark.parametrize("layout", ["strided", "column", "read_only", "float32", "int", "list"])
    @pytest.mark.parametrize("kernel", ["as_built", "none"])
    def test_any_layout_or_dtype_gives_the_oracle_bits(self, layout, kernel, python_loops):
        # Every buffer is filtered as float64: float32 and int buffers give
        # the bits of their float64 conversion.
        if kernel == "none":
            python_loops()
        rng = np.random.default_rng(21)
        wide = rng.normal(size=(800, 3)) * 30.0
        values = {
            "strided": wide[::2, 0],
            "column": wide[:, 1],
            "read_only": wide[:, 2].copy(),
            "float32": wide[:, 0].astype(np.float32),
            "int": np.round(wide[:, 0] * 1e3).astype(np.int64),
            "list": wide[:, 0].tolist(),
        }[layout]
        if layout == "read_only":
            values.flags.writeable = False
        for m in BOXCAR_M:
            n_out = (len(values) - 2 * m) // m + 1
            for k_start, k_stop in ((0, n_out), (n_out - 1, n_out), (1, 3)):
                got = smoothed_block(values, m, k_start, k_stop)
                want = smoothed_block_oracle(np.asarray(values, np.float64), m, k_start, k_stop)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "k_start, k_stop", [(0, 2.5), (1.5, 3), (np.float64(1.0), 3), ("1", 3), (None, 3)]
    )
    def test_indices_that_are_not_integers_rejected(self, k_start, k_stop):
        # Both used to raise a bare TypeError from the slice.
        with pytest.raises(GaitInputError, match="integers"):
            smoothed_block(np.arange(100.0), 4, k_start, k_stop)


@pytest.fixture
def boxcar(compiled_kernel):
    """The kernel's boxcar (see conftest.py for when it skips)."""
    return compiled_kernel.boxcar


def run_boxcar(loop, values, m, k_start, n_out):
    """Call a boxcar loop, the kernel's or the numpy one, with the same arguments."""
    out = np.empty(n_out)
    assert loop(values, out, m, k_start) is None
    return out


class TestBoxcarKernel:
    """The kernel's `boxcar` writes `_boxcar_loop`'s bits."""

    @pytest.mark.parametrize("m", BOXCAR_M)
    def test_kernel_equals_numpy_loop(self, boxcar, m):
        rng = np.random.default_rng(m)
        for case in range(60):
            n_out = int(rng.integers(1, 12))
            n = m * (n_out + 1) + int(rng.integers(0, m))
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6) + rng.normal() * 100.0
            k_start = int(rng.integers(0, n_out))
            want = run_boxcar(_boxcar_loop, values, m, k_start, n_out - k_start)
            got = run_boxcar(boxcar, values, m, k_start, n_out - k_start)
            assert got.tobytes() == want.tobytes(), f"case {case}"

    @pytest.mark.parametrize("m", BOXCAR_M)
    def test_special_windows(self, boxcar, m):
        # Windows 0..5: all -0.0, a NaN, +inf, -inf, +inf and -inf, and
        # -0.0 with one +0.0 in the middle.
        windows = np.full((6, 2 * m), -0.0)
        windows[1] = windows[2] = windows[3] = windows[4] = 1.5
        windows[1, m] = math.nan
        windows[2, -1] = math.inf
        windows[3, 0] = -math.inf
        windows[4, 0], windows[4, -1] = math.inf, -math.inf
        windows[5, m] = 0.0
        # Output 2k reads window k alone: the odd outputs straddle two.
        values = windows.ravel()
        n_out = (len(values) - 2 * m) // m + 1
        with np.errstate(invalid="ignore"):  # inf - inf in the numpy loop
            want = run_boxcar(_boxcar_loop, values, m, 0, n_out)
        got = run_boxcar(boxcar, values, m, 0, n_out)
        assert got.tobytes() == want.tobytes()
        # np.add.reduce starts from +0.0, so an all -0.0 window gives +0.0.
        assert got[0].tobytes() == np.float64(0.0).tobytes()
        assert math.isnan(got[2]) and got[4] == math.inf and got[6] == -math.inf
        assert math.isnan(got[8])

    @pytest.mark.parametrize("m", BOXCAR_M)
    def test_last_window_flush_with_the_buffer(self, boxcar, m):
        rng = np.random.default_rng(100 + m)
        values = rng.normal(size=6 * m)  # room for outputs 0..4 exactly
        for k_start in range(5):
            want = run_boxcar(_boxcar_loop, values, m, k_start, 5 - k_start)
            assert run_boxcar(boxcar, values, m, k_start, 5 - k_start).tobytes() == want.tobytes()
            # One output more ends one window past the buffer.
            out = np.full(6 - k_start, 7.0)
            with pytest.raises(ValueError, match="boxcar output 5 needs"):
                boxcar(values, out, m, k_start)
            assert (out == 7.0).all()

    @pytest.mark.parametrize(
        "values_bytes, out_bytes, m, k_start",
        [(160, 8, 0, 0), (160, 8, -1, 0), (160, 8, 2, -1), (164, 8, 2, 0), (160, 12, 2, 0),
         (160, 8, 2, 2**62), (160, 8, 2**62, 0)],
        ids=["m_zero", "m_negative", "k_start_negative", "values_partial_double",
             "out_partial_double", "k_start_huge", "m_huge"],
    )
    def test_bad_arguments_rejected(self, boxcar, values_bytes, out_bytes, m, k_start):
        out = bytearray(b"\x07" * out_bytes)
        with pytest.raises(ValueError):
            boxcar(bytes(values_bytes), out, m, k_start)
        assert out == bytearray(b"\x07" * out_bytes)

    @pytest.mark.parametrize("m, k_start", [(5, 3), (2**62, 2**62)])
    def test_empty_output_writes_nothing(self, boxcar, m, k_start):
        assert boxcar(bytes(16), bytearray(), m, k_start) is None

    def test_smoothed_block_runs_the_kernel_for_1d_float64(self, boxcar, monkeypatch):
        calls = []

        def counted(values, out, m, k_start):
            calls.append((values.dtype, values.ndim, values.flags.c_contiguous, len(out), m, k_start))
            return boxcar(values, out, m, k_start)

        monkeypatch.setattr(_kernel, "loops", lambda: SimpleNamespace(boxcar=counted))
        values = np.arange(100.0)
        smoothed_block(values, 4, 2, 5)
        smoothed_block(values[::2], 4, 1, 3)
        # Other dtypes are converted to float64 and take the kernel too.
        smoothed_block(values.astype(np.float32), 4, 2, 5)
        smoothed_block(np.arange(100), 4, 2, 5)
        assert calls == [
            (np.float64, 1, True, 3, 4, 2),
            (np.float64, 1, True, 2, 4, 1),
            (np.float64, 1, True, 3, 4, 2),
            (np.float64, 1, True, 3, 4, 2),
        ]


class TestStreamTiming:
    def test_clean_stream_silent(self):
        t = np.arange(100) / 100.0
        check_stream_timing(t, 100.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_timestamp_rejected(self, bad):
        t = np.arange(100) / 100.0
        t[50] = bad
        with pytest.raises(GaitInputError, match="finite"):
            check_stream_timing(t, 100.0)

    @pytest.mark.parametrize("rate", [0.0, -100.0, math.nan, math.inf])
    def test_bad_nominal_rate_rejected(self, rate):
        with pytest.raises(GaitInputError, match="rate"):
            check_stream_timing(np.arange(100) / 100.0, rate)

    def test_small_jitter_warns(self):
        rng = np.random.default_rng(2)
        t = np.arange(100) / 100.0 + rng.uniform(-0.004, 0.004, 100)
        t.sort()
        with pytest.warns(UserWarning, match="jitter"):
            check_stream_timing(t, 100.0)

    def test_backwards_time_rejected(self):
        t = np.arange(100) / 100.0
        t[50] = t[49] - 0.05
        with pytest.raises(GaitInputError):
            check_stream_timing(t, 100.0)

    def test_millisecond_jitter_accepted_at_bend_rate(self):
        # 1 ms jitter on a 10 ms period: accepted, at most a warning.
        rng = np.random.default_rng(3)
        t = np.arange(200) / 100.0 + rng.uniform(-0.001, 0.001, 200)
        t.sort()
        check_stream_timing(t, 100.0)


class TestUniformSeries:
    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf])
    def test_bad_rate_rejected(self, rate):
        # At rate inf, index_near used to raise OverflowError.
        with pytest.raises(GaitInputError, match="rate"):
            UniformSeries(0.0, rate, np.zeros(10))

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_rejected(self, t0):
        with pytest.raises(GaitInputError, match="start time"):
            UniformSeries(t0, 25.0, np.zeros(10))

    @pytest.mark.parametrize(
        "values",
        [np.zeros((40, 2)), np.zeros((40, 1)), [[1.0, 2.0], [3.0, 4.0]], np.float64(1.0), 1.0],
        ids=["40x2", "40x1", "nested_list", "numpy_scalar", "float"],
    )
    def test_values_not_1d_rejected(self, values):
        with pytest.raises(GaitInputError, match="one channel"):
            UniformSeries(0.0, 25.0, values)

    @pytest.mark.parametrize(
        "values", [array("d", [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0], np.arange(3.0)],
        ids=["array_d", "flat_list", "ndarray"],
    )
    def test_one_channel_accepted(self, values):
        s = UniformSeries(0.0, 25.0, values)
        assert len(s) == 3 and s.index_near(0.04) == 1


def offset_inputs(rng, n, layout):
    """(n, 3) accel and gyro in a given memory layout, rows of NaN and +-inf among them."""
    accel = rng.normal(0.0, 1.0, (2 * n, 3))
    gyro = rng.normal(0.0, 50.0, (2 * n, 3))
    for a in (accel, gyro):
        a[rng.random(2 * n) < 0.1] = np.nan
        a[rng.random(2 * n) < 0.1, 1] = np.inf
        a[rng.random(2 * n) < 0.1, 2] = -np.inf
        a[rng.random((2 * n, 3)) < 0.1] = -0.0
    if layout == "strided":
        return accel[::2], gyro[::2]
    accel, gyro = accel[:n], gyro[:n]
    if layout == "fortran":
        return np.asfortranarray(accel), np.asfortranarray(gyro)
    return accel, gyro


class TestApplyOffsetsPaths:
    """apply_offsets gives the bits of the `a - o` broadcast at every size and layout."""

    @pytest.mark.parametrize("n", [1, 10, 63, 64, 65, 1000])
    @pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided"])
    def test_equals_the_broadcast(self, n, layout):
        rng = np.random.default_rng(n)
        accel, gyro = offset_inputs(rng, n, layout)
        offsets = OffsetSet(np.array([0.01, -0.0, -0.02]), np.array([-0.0, 1.5, -2.25]), 0.5)
        bend = BendStream(np.arange(n) / 100.0, rng.normal(0.0, 30.0, n))
        imu, bend_out = apply_offsets(ImuStream(np.arange(n) / 250.0, accel, gyro), bend, offsets)
        for got, want in ((imu.accel, accel - offsets.accel_g), (imu.gyro, gyro - offsets.gyro_dps)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(
            bend_out.angle_deg.view(np.uint64), (bend.angle_deg - 0.5).view(np.uint64)
        )

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(3)
        accel, gyro = offset_inputs(rng, 200, "contiguous")
        angle = rng.normal(0.0, 30.0, 80)
        before = accel.copy(), gyro.copy(), angle.copy()
        apply_offsets(
            ImuStream(np.arange(200) / 250.0, accel, gyro),
            BendStream(np.arange(80) / 100.0, angle),
            OffsetSet(np.ones(3), np.ones(3), 1.0),
        )
        for got, want in zip((accel, gyro, angle), before):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def rows_with_specials(rng, n, c):
    """(n, c) normal values, with NaN, +-inf and -0.0 spread through them."""
    v = rng.normal(0.0, 2.0, (n, c))
    k = min(v.size, 40)
    v.flat[rng.choice(v.size, size=k, replace=False)] = rng.choice([np.nan, np.inf, -np.inf, -0.0], k)
    return v


class TestOffsetLoop:
    """The kernel's `offset` writes `_offset_loop`'s (numpy's) bits."""

    @pytest.mark.parametrize("n", [0, 1, 10, 15000])
    @pytest.mark.parametrize("shape", ["rows", "series"])
    def test_kernel_equals_numpy(self, compiled_kernel, n, shape):
        rng = np.random.default_rng(n)
        if shape == "rows":
            values, offset = rows_with_specials(rng, n, 3), np.array([0.01, -0.0, -2.25])
        else:
            values, offset = rows_with_specials(rng, n, 1)[:, 0], np.array(-0.0)
        got, want = np.full(values.shape, 7.0), np.full(values.shape, 7.0)
        with np.errstate(invalid="raise"):
            compiled_kernel.offset(values, offset, got)
            _offset_loop(values, offset, want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values, offset, out", [
        ((4, 3), (2,), (4, 3)),  # 12 doubles are rows of 2 too, but not of this shape
        ((4, 3), (3,), (3, 4)),  # out of another shape
        ((4, 3), (1,), (4, 3)),  # numpy would broadcast this offset
        ((6,), (3,), (6,)),
        ((), (), ()),  # no row
    ])
    def test_shapes_checked(self, loops, values, offset, out):
        loop = _kernel.loops().offset
        with pytest.raises(ValueError, match="offset needs"):
            loop(np.zeros(values), np.zeros(offset), np.zeros(out))

    def test_buffers_of_other_items_rejected(self, compiled_kernel):
        with pytest.raises(ValueError, match="offset needs"):
            compiled_kernel.offset(bytes(24), bytes(8), bytearray(24))

    def test_offset_of_another_shape_rejected(self, loops):
        imu = ImuStream(np.arange(4) / 250.0, np.zeros((4, 3)), np.zeros((4, 3)))
        bend = BendStream(np.arange(4) / 100.0, np.zeros(4))
        with pytest.raises(ValueError, match="offset needs"):
            apply_offsets(imu, bend, OffsetSet(np.zeros(2), np.zeros(3), 0.0))
        with pytest.raises(ValueError, match="offset needs"):
            apply_offsets(imu, bend, OffsetSet(np.zeros(3), np.zeros(3), np.zeros(1)))


class TestMedianLayouts:
    @pytest.mark.parametrize("n", [24, 25, 500, 501])
    @pytest.mark.parametrize("layout", ["fortran", "strided", "strided_1d"])
    def test_any_layout_gives_np_median_bits(self, n, layout):
        rng = np.random.default_rng(n)
        for _ in range(20):
            values = median_window(rng, 2 * n, 3)
            if layout == "fortran":
                values = np.asfortranarray(values[:n])
            elif layout == "strided":
                values = values[::2]
            else:
                values = values[::2, 1]
            got, want = _median(values), np.median(values, axis=0)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [100, 101])
    def test_compute_offsets_leaves_the_window_unchanged(self, n):
        rng = np.random.default_rng(n)
        imu = still_imu(n=n)
        imu.accel += median_window(rng, n, 3) * 0.01
        imu.gyro += median_window(rng, n, 3)
        bend = still_bend(n=n)
        bend.angle_deg += median_window(rng, n, None)
        before = [a.copy() for a in (imu.accel, imu.gyro, bend.angle_deg)]
        compute_offsets(imu, bend)
        for got, want in zip((imu.accel, imu.gyro, bend.angle_deg), before):
            assert got.tobytes() == want.tobytes()
