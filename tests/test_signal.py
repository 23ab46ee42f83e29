import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gaitlab.errors import CalibrationError, GaitInputError
from gaitlab.signal import (
    BendStream,
    ImuStream,
    OffsetSet,
    apply_offsets,
    check_stream_timing,
    compute_offsets,
    downsample_smooth,
    smoothed_block,
)


def still_imu(n=100, accel=(0.0, 0.0, 1.0), gyro=(0.0, 0.0, 0.0), rate=250.0):
    t = np.arange(n) / rate
    return ImuStream(t, np.tile(accel, (n, 1)).astype(float), np.tile(gyro, (n, 1)).astype(float))


def still_bend(n=100, angle=0.0, rate=100.0):
    return BendStream(np.arange(n) / rate, np.full(n, float(angle)))


class TestComputeOffsets:
    def test_constant_bend_offset(self):
        off = compute_offsets(None, still_bend(angle=3.0))
        assert off.bend_deg == 3.0
        _, corrected = apply_offsets(None, still_bend(angle=3.0), off)
        assert np.all(corrected.angle_deg == 0.0)

    def test_median_rejects_outlier(self):
        angles = np.array([2.9, 3.0, 3.1] * 8 + [100.0])
        off = compute_offsets(None, BendStream(np.arange(25) / 100.0, angles))
        assert off.bend_deg == pytest.approx(3.0)

    def test_gravity_axis_preserved(self):
        off = compute_offsets(still_imu(accel=(0.0, 0.0, 1.02)), None)
        assert off.accel_g[2] == pytest.approx(0.02)
        corrected, _ = apply_offsets(still_imu(accel=(0.0, 0.0, 1.02)), None, off)
        assert corrected.accel[0, 2] == pytest.approx(1.0)

    def test_nongravity_axes_zeroed(self):
        off = compute_offsets(still_imu(accel=(0.015, -0.02, 1.0)), None)
        assert off.accel_g[0] == pytest.approx(0.015)
        assert off.accel_g[1] == pytest.approx(-0.02)

    def test_gyro_offsets(self):
        off = compute_offsets(still_imu(gyro=(0.5, -0.8, 0.1)), None)
        assert off.gyro_dps == pytest.approx([0.5, -0.8, 0.1])

    def test_idempotent_on_corrected_window(self):
        raw = still_imu(accel=(0.01, 0.0, 1.03), gyro=(1.0, 0.0, -0.5))
        off = compute_offsets(raw, None)
        corrected, _ = apply_offsets(raw, None, off)
        off2 = compute_offsets(corrected, None)
        assert np.all(np.abs(off2.accel_g) < 1e-9)
        assert np.all(np.abs(off2.gyro_dps) < 1e-9)

    def test_window_too_short(self):
        with pytest.raises(CalibrationError):
            compute_offsets(still_imu(n=10), None)
        with pytest.raises(CalibrationError):
            compute_offsets(None, still_bend(n=24))

    def test_moving_subject_rejected(self):
        rng = np.random.default_rng(0)
        t = np.arange(200) / 100.0
        swinging = BendStream(t, 20.0 * np.sin(2 * np.pi * t) + rng.normal(0, 0.1, 200))
        with pytest.raises(CalibrationError):
            compute_offsets(None, swinging)

    def test_moving_gyro_rejected(self):
        imu = still_imu(n=200)
        imu.gyro[:, 1] = 30.0 * np.sin(np.arange(200) / 10.0)
        with pytest.raises(CalibrationError):
            compute_offsets(imu, None)


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
        s = np.stack([np.arange(40.0), np.arange(40.0) * 2], axis=1)
        out = downsample_smooth(s, m=2, rate_hz=100.0)
        assert out.values.shape == ((40 - 4) // 2 + 1, 2)
        assert out.values[0, 0] == pytest.approx(s[0:4, 0].mean())
        assert out.values[0, 1] == pytest.approx(s[0:4, 1].mean())

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


def smoothed_block_oracle(values, m, k_start, k_stop):
    """The slow path: a general sliding-window view, every Mth window, mean."""
    if k_stop <= k_start:
        return values[:0]
    window = sliding_window_view(values[m * k_start : m * k_stop + m], 2 * m, axis=0)
    return window[::m].mean(axis=-1)


class TestSmoothedBlock:
    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(4)
        for case in range(400):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(2 * m, 300))
            shape = [(n,), (n, 1), (n, 2), (n, 3)][case % 4]
            values = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 4)
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
        for m, shape in ((10, (1500,)), (4, (600,)), (3, (200, 2))):
            values = rng.normal(size=shape) * 40.0
            batch = downsample_smooth(values, m=m, rate_hz=100.0).values
            blocks = [smoothed_block(values, m, k, k + 1) for k in range(len(batch))]
            assert np.array_equal(np.concatenate(blocks), batch), f"m={m}"

    def test_memory_layout_does_not_change_bits(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(400, 3)) * 25.0
        want = smoothed_block(values, 10, 0, 39)
        assert np.array_equal(smoothed_block(np.asfortranarray(values), 10, 0, 39), want)
        strided = np.repeat(values, 2, axis=0)[::2]
        assert np.array_equal(smoothed_block(strided, 10, 0, 39), want)

    def test_range_past_buffer_rejected(self):
        with pytest.raises(GaitInputError):
            smoothed_block(np.zeros(30), 10, 0, 5)
        with pytest.raises(GaitInputError):
            smoothed_block(np.zeros((30, 2)), 10, 2, 3)

    def test_empty_range(self):
        for values in (np.arange(50.0), np.zeros((50, 2))):
            for k_start, k_stop in ((3, 3), (4, 2)):
                got = smoothed_block(values, 5, k_start, k_stop)
                assert got.shape == (0, *values.shape[1:])
                assert got.dtype == values.dtype


class TestStreamTiming:
    def test_clean_stream_silent(self):
        t = np.arange(100) / 100.0
        check_stream_timing(t, 100.0)

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


class TestOffsetSetDefaults:
    def test_zero_defaults(self):
        off = OffsetSet()
        assert np.all(off.accel_g == 0) and np.all(off.gyro_dps == 0)
        assert off.bend_deg == 0.0
