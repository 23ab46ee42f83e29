import math

import numpy as np
import pytest

from gaitlab.errors import GaitInputError
from gaitlab.orientation import (
    Quaternion,
    filter_init,
    hip_angle,
    madgwick_batch,
    madgwick_update,
    quat_sagittal,
    remap_mounting,
)

DT = 0.04  # 25 Hz


def gravity_for(tilt_deg):
    r = math.radians(tilt_deg)
    return np.array([math.sin(r), 0.0, math.cos(r)])


def run_static(tilt_deg, seconds):
    n = int(round(seconds / DT))
    accel = np.tile(gravity_for(tilt_deg), (n, 1))
    gyro = np.zeros((n, 3))
    return madgwick_batch(accel, gyro, DT, filter_init())


class TestHipAngle:
    def test_identity_is_zero(self):
        assert hip_angle(Quaternion.identity()) == 0.0

    def test_constructed_sagittal_rotations(self):
        for deg in (30.0, -10.0, 0.0, 55.0, -35.0):
            assert hip_angle(quat_sagittal(deg)) == pytest.approx(deg, abs=1e-9)

    def test_agrees_with_accel_tilt(self):
        # hip_angle(q) equals atan2(ax, az) of the gravity vector q predicts.
        for deg in (-10.0, 5.0, 20.0, 35.0):
            q = quat_sagittal(deg)
            w, x, y, z = q.w, q.x, q.y, q.z
            gx = 2 * (x * z - w * y)
            gz = 1 - 2 * (x * x + y * y)
            g = gravity_for(deg)
            assert gx == pytest.approx(g[0], abs=1e-12)
            assert gz == pytest.approx(g[2], abs=1e-12)


class TestMadgwick:
    def test_stationary_identity_fixed_point(self):
        angles, state = run_static(0.0, 2.0)
        assert np.all(angles == 0.0)
        assert state.q == Quaternion.identity()

    def test_static_tilt_converges(self):
        angles, _ = run_static(20.0, 5.0)
        assert angles[-1] == pytest.approx(20.0, abs=0.5)

    def test_static_convergence_across_range(self):
        for tilt in (-60.0, -30.0, -5.0, 10.0, 45.0, 60.0):
            angles, _ = run_static(tilt, 5.0)
            assert angles[-1] == pytest.approx(tilt, abs=0.5), f"tilt {tilt}"

    def test_constant_rate_tracks(self):
        # Hip advancing at +10 deg/s for 1 s with consistent accel and gyro.
        n = 25
        theta = 10.0 * (np.arange(1, n + 1) * DT)
        accel = np.stack([np.sin(np.radians(theta)), np.zeros(n), np.cos(np.radians(theta))], axis=1)
        gyro = np.stack([np.zeros(n), np.full(n, -10.0), np.zeros(n)], axis=1)
        angles, _ = madgwick_batch(accel, gyro, DT, filter_init())
        assert angles[-1] == pytest.approx(10.0, abs=1.0)

    def test_gyro_bias_rejected(self):
        n = 750
        accel = np.tile([0.0, 0.0, 1.0], (n, 1))
        biased = np.tile([0.0, 1.0, 0.0], (n, 1))
        angles, _ = madgwick_batch(accel, biased, DT, filter_init())
        assert abs(angles[-1]) < 1.0

    def test_unit_norm_preserved_long_run(self):
        rng = np.random.default_rng(0)
        n = 100_000
        accel = rng.normal([0, 0, 1], 0.05, (n, 3))
        gyro = rng.normal(0.0, 5.0, (n, 3))
        _, state = madgwick_batch(accel, gyro, DT, filter_init())
        assert abs(state.q.norm() - 1.0) < 1e-6

    def test_zero_accel_falls_back_to_gyro(self):
        state = filter_init()
        state = madgwick_update(state, [0.0, 0.0, 0.0], [0.0, -10.0, 0.0], DT)
        assert state.accel_rejected
        assert hip_angle(state.q) == pytest.approx(10.0 * DT, abs=1e-4)

    def test_empty_chunk_keeps_accel_rejected(self):
        state = madgwick_update(filter_init(), [0.0, 0.0, 0.0], [0.0, -10.0, 0.0], DT)
        angles, after = madgwick_batch(np.zeros((0, 3)), np.zeros((0, 3)), DT, state)
        assert len(angles) == 0
        assert after == state

    def test_batch_matches_single_updates(self):
        rng = np.random.default_rng(1)
        accel = rng.normal([0, 0, 1], 0.02, (200, 3))
        gyro = rng.normal(0.0, 3.0, (200, 3))
        accel[57] = 0.0  # one gyro-only sample inside the run
        angles, batch_state = madgwick_batch(accel, gyro, DT, filter_init())
        state = filter_init()
        for a, g in zip(accel, gyro):
            state = madgwick_update(state, a, g, DT)
        assert batch_state.q == state.q
        # Live processing feeds the same samples in chunks, carrying the state.
        for chunk in (1, 7, 10):
            state = filter_init()
            parts = []
            for i in range(0, len(accel), chunk):
                part, state = madgwick_batch(
                    accel[i : i + chunk], gyro[i : i + chunk], DT, state
                )
                parts.append(part)
            assert np.array_equal(np.concatenate(parts), angles), f"chunk {chunk}"
            assert state.q == batch_state.q, f"chunk {chunk}"
            assert state.accel_rejected == batch_state.accel_rejected, f"chunk {chunk}"

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        accel = rng.normal([0, 0, 1], 0.02, (500, 3))
        gyro = rng.normal(0.0, 3.0, (500, 3))
        a1, s1 = madgwick_batch(accel, gyro, DT, filter_init())
        a2, s2 = madgwick_batch(accel, gyro, DT, filter_init())
        assert np.array_equal(a1, a2)
        assert s1.q == s2.q

    def test_bad_dt_rejected(self):
        with pytest.raises(GaitInputError):
            madgwick_update(filter_init(), [0, 0, 1], [0, 0, 0], 0.0)

    @pytest.mark.parametrize(
        "accel_shape, gyro_shape, dt",
        [
            ((10, 3), (10, 3), 0.0),
            ((10, 3), (10, 3), -0.004),
            ((10, 3), (11, 3), DT),
            ((10, 2), (10, 2), DT),
            ((30,), (30,), DT),
            ((10, 3, 1), (10, 3, 1), DT),
        ],
        ids=["dt_zero", "dt_negative", "length_mismatch", "two_columns", "flat", "three_dims"],
    )
    def test_batch_rejects_bad_input(self, accel_shape, gyro_shape, dt):
        accel = np.zeros(accel_shape)
        gyro = np.zeros(gyro_shape)
        with pytest.raises(GaitInputError):
            madgwick_batch(accel, gyro, dt, filter_init())


class TestMounting:
    def test_default_identity(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(remap_mounting(v, "y"), v)

    def test_flipped_lateral_axis(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(remap_mounting(v, "-y"), [[-1.0, -2.0, 3.0]])

    def test_rotations_are_proper(self):
        from gaitlab.orientation import _MOUNT_MATRICES

        for name, m in _MOUNT_MATRICES.items():
            assert np.linalg.det(m) == pytest.approx(1.0), name
            assert np.allclose(m @ m.T, np.eye(3)), name

    def test_unknown_mounting_rejected(self):
        with pytest.raises(GaitInputError):
            remap_mounting(np.zeros((1, 3)), "z")
