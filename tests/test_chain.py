"""The whole chain, batch and in live chunks, with and without the C kernel.

A hand-built two-leg recording goes through the batch stages (offsets,
mount rotation, Madgwick filter, downsample-smooth, segmentation, lengths,
strides, asymmetry) and through the same stages fed 10 IMU rows (40 ms) at a
time. The live 25 Hz series, minima and steps equal the batch ones, and the
kernel's loops and the Python loops give every output bit for bit.
"""

import math

import numpy as np
import pytest

from gaitlab import orientation
from gaitlab.core import StaticParams, attach_lengths, gait_asymmetry, stride_metrics
from gaitlab.events import (
    AngleQuad,
    DerivativeStream,
    EventConfig,
    MinimaDetector,
    detect_minima,
    segment_steps,
)
from gaitlab.orientation import filter_init, madgwick_batch, remap_mounting
from gaitlab.signal import (
    BendStream,
    ImuStream,
    UniformSeries,
    apply_offsets,
    compute_offsets,
    downsample_smooth,
    smoothed_block,
)

IMU_HZ, BEND_HZ = 250.0, 100.0
M_IMU, M_BEND = 10, 4
SERIES_HZ = IMU_HZ / M_IMU
PARAMS = StaticParams(l1_cm=45.0, l2_cm=48.0, d5_cm=15.0)
PERIOD_S, BACK_DELAY_S, WALK_S = 1.0, 0.1, 8.0
ROWS = 10  # IMU rows per live chunk, with 4 bend rows: 40 ms


def leg(rng, side, mount):
    """One leg's standing windows, walking streams and mount.

    Knee minima of leg L at k * PERIOD_S and of leg R half a period later;
    each hip minimum follows the other leg's knee minimum by BACK_DELAY_S,
    as in a walk. The streams are the canonical-frame signals of a
    sagittal thigh turned into the mount's sensor frame (the `y` and `-y`
    rotations are their own inverses), plus a constant bias and noise.
    """
    shift = 0.0 if side == "L" else PERIOD_S / 2
    bias = rng.normal(0.0, 0.01, 3), rng.normal(0.0, 0.4, 3), rng.normal(0.0, 1.5)

    def imu(t, hip_deg, rate_dps):
        r = np.radians(hip_deg)
        zeros = np.zeros_like(r)
        accel = remap_mounting(np.stack([np.sin(r), zeros, np.cos(r)], axis=1), mount)
        gyro = remap_mounting(np.stack([zeros, -rate_dps, zeros], axis=1), mount)
        return ImuStream(
            t,
            accel + bias[0] + rng.normal(0.0, 0.004, accel.shape),
            gyro + bias[1] + rng.normal(0.0, 0.15, gyro.shape),
        )

    def bend(t, knee_deg):
        return BendStream(t, knee_deg + bias[2] + rng.normal(0.0, 0.15, len(t)))

    t_imu = np.arange(int(WALK_S * IMU_HZ)) / IMU_HZ
    t_bend = np.arange(int(WALK_S * BEND_HZ)) / BEND_HZ
    w = 2 * math.pi / PERIOD_S
    hip_phase = w * (t_imu - shift - PERIOD_S / 2 - BACK_DELAY_S)
    still_imu, still_bend = np.zeros(int(IMU_HZ)), np.zeros(int(BEND_HZ))  # 1 s
    return (
        imu(np.arange(len(still_imu)) / IMU_HZ - 1.0, still_imu, still_imu),
        bend(np.arange(len(still_bend)) / BEND_HZ - 1.0, still_bend),
        imu(t_imu, 12.5 - 22.5 * np.cos(hip_phase), 22.5 * w * np.sin(hip_phase)),
        bend(t_bend, 31.0 - 21.0 * np.cos(w * (t_bend - shift))),
        mount,
    )


@pytest.fixture(scope="module")
def recording():
    rng = np.random.default_rng(15)
    return {"L": leg(rng, "L", "y"), "R": leg(rng, "R", "-y")}


def finish(hips, knees):
    """Steps, strides and asymmetry from the four 25 Hz series."""
    quad = AngleQuad(knees["L"], knees["R"], hips["L"], hips["R"])
    steps = attach_lengths(segment_steps(quad), PARAMS)
    strides = stride_metrics(steps)
    return quad, steps, strides, [gait_asymmetry(s) for s in strides]


def batch(recording):
    hips, knees, states = {}, {}, {}
    for side, (standing_imu, standing_bend, imu, bend, mount) in recording.items():
        imu, bend = apply_offsets(imu, bend, compute_offsets(standing_imu, standing_bend))
        accel, gyro = remap_mounting(imu.accel, mount), remap_mounting(imu.gyro, mount)
        hip, states[side] = madgwick_batch(accel, gyro, 1 / IMU_HZ, filter_init())
        hips[side] = downsample_smooth(hip, M_IMU, IMU_HZ, float(imu.t[0]))
        knees[side] = downsample_smooth(bend.angle_deg, M_BEND, BEND_HZ, float(bend.t[0]))
    return (*finish(hips, knees), states)


class LiveSeries:
    """One series' decimator, derivative and detector, fed per chunk."""

    def __init__(self, name, m, t0):
        self.m, self.raw, self.out = m, np.empty(0), []
        self.derivative = DerivativeStream(SERIES_HZ)
        self.detector = MinimaDetector(name, t0, SERIES_HZ, EventConfig())
        self.events = []

    def feed(self, samples):
        self.raw = np.concatenate([self.raw, samples])
        n, m, done = len(self.raw), self.m, len(self.out)
        k_stop = (n - 2 * m) // m + 1 if n >= 2 * m else 0
        if k_stop <= done:
            return
        block = smoothed_block(self.raw, m, done, k_stop)
        self.out.extend(block)
        self.detector.extend_series(block)
        self.events += self.detector.feed_derivative(self.derivative.feed(block))

    def finish(self):
        self.events += self.detector.feed_derivative(self.derivative.finalize())
        self.events += self.detector.finalize()
        return UniformSeries(self.detector.t0, SERIES_HZ, np.array(self.out))


def live(recording):
    series, states = {}, {}
    for side, (standing_imu, standing_bend, imu, bend, mount) in recording.items():
        offsets = compute_offsets(standing_imu, standing_bend)
        hip = LiveSeries(f"hip_{side}", M_IMU, float(imu.t[0]) + (M_IMU - 1) / IMU_HZ)
        knee = LiveSeries(f"knee_{side}", M_BEND, float(bend.t[0]) + (M_BEND - 1) / BEND_HZ)
        state = filter_init()
        for a in range(0, len(imu), ROWS):
            b, p = a + ROWS, a * 2 // 5  # 4 bend rows per 10 IMU rows
            chunk = ImuStream(imu.t[a:b], imu.accel[a:b], imu.gyro[a:b])
            chunk, bend_chunk = apply_offsets(
                chunk, BendStream(bend.t[p : p + 4], bend.angle_deg[p : p + 4]), offsets
            )
            accel = remap_mounting(chunk.accel, mount)
            gyro = remap_mounting(chunk.gyro, mount)
            angles, state = madgwick_batch(accel, gyro, 1 / IMU_HZ, state)
            hip.feed(angles)
            knee.feed(bend_chunk.angle_deg)
        series[side], states[side] = (hip, knee), state
    hips = {side: hip.finish() for side, (hip, _) in series.items()}
    knees = {side: knee.finish() for side, (_, knee) in series.items()}
    events = {s.detector.series_id: s.events for pair in series.values() for s in pair}
    return (*finish(hips, knees), states, events)


def bits(quad, steps, strides, asymmetry, states):
    """The outputs as bytes and reprs: equal only if every float has the same bits."""
    return (
        [quad.series(name).values.tobytes() for name in ("hip_L", "knee_L", "hip_R", "knee_R")],
        [quad.series(name).t0.hex() for name in ("hip_L", "knee_L", "hip_R", "knee_R")],
        repr(steps),
        repr(strides),
        repr(asymmetry),
        repr(states),
    )


def test_live_chunks_equal_batch(recording):
    *outputs, events = live(recording)
    want = batch(recording)
    assert bits(*outputs) == bits(*want)
    quad, steps = want[0], want[1]
    assert len(steps) >= 12
    for name, got in events.items():
        assert repr(got) == repr(detect_minima(quad.series(name), series_id=name))


def test_kernel_and_python_loops_give_the_same_bits(compiled_kernel, recording, monkeypatch):
    def outputs():
        *live_outputs, events = live(recording)
        return bits(*batch(recording)), bits(*live_outputs), repr(events)

    with_kernel = outputs()
    monkeypatch.setattr(orientation, "_kernel_module", lambda: None)
    assert outputs() == with_kernel
