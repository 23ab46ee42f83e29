"""The whole chain, batch and in live chunks, with and without the C kernel.

A hand-built two-leg recording goes through `gaitlab.pipeline.analyze`,
which feeds `StreamingAnalyzer` each leg's whole streams at once, and
through `StreamingAnalyzer` fed 10 IMU rows (40 ms) at a time. The live
25 Hz series, minima, filter end states, steps, strides and asymmetry equal
the whole recording's. On the series of `Analysis.quad`, the batch
operations `detect_minima`, `segment_steps` and `stride_metrics` give the
same minima, steps and strides. The kernel's loops and the Python loops
give every output bit for bit.
"""

import math
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from gaitlab.core import StaticParams, attach_lengths, stride_metrics
from gaitlab.events import AngleQuad, detect_minima, segment_steps
from gaitlab.orientation import remap_mounting
from gaitlab.pipeline import BEND_HZ, IMU_HZ, StreamingAnalyzer, analyze
from gaitlab.signal import BendStream, ImuStream, UniformSeries

SERIES = ("hip_L", "knee_L", "hip_R", "knee_R")
PARAMS = StaticParams(l1_cm=45.0, l2_cm=48.0, d5_cm=15.0)
PERIOD_S, BACK_DELAY_S, WALK_S = 1.0, 0.1, 8.0
ROWS = 10  # IMU rows per live chunk, with 4 bend rows: 40 ms


def leg(rng, side, mount):
    """One leg's standing windows, walking streams and mount, as `pipeline` reads them.

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
    return SimpleNamespace(
        standing_imu=imu(np.arange(len(still_imu)) / IMU_HZ - 1.0, still_imu, still_imu),
        standing_bend=bend(np.arange(len(still_bend)) / BEND_HZ - 1.0, still_bend),
        imu=imu(t_imu, 12.5 - 22.5 * np.cos(hip_phase), 22.5 * w * np.sin(hip_phase)),
        bend=bend(t_bend, 31.0 - 21.0 * np.cos(w * (t_bend - shift))),
        mounting_axis=mount,
    )


@pytest.fixture(scope="module")
def recording():
    rng = np.random.default_rng(15)
    return {"L": leg(rng, "L", "y"), "R": leg(rng, "R", "-y")}


class Recorder:
    """A probe that keeps what the calls of the given names return, by name."""

    def __init__(self, *names):
        self.names = names
        self.returns = defaultdict(list)

    def call(self, name, fn, *args):
        out = fn(*args)
        if name in self.names:
            self.returns[name].append(out)
        return out

    def count(self, name, n=1):
        pass


def batch(recording):
    """The batch outputs and each leg's filter end state."""
    probe = Recorder("orientation.madgwick_batch")
    result = analyze(recording, PARAMS, probe)
    # One filter call per leg, in the legs' order.
    states = {
        side: state
        for side, (_, state) in zip(recording, probe.returns["orientation.madgwick_batch"])
    }
    return result.quad, result.steps, result.strides, result.asymmetry, states


def live(recording):
    """The live outputs, each leg's filter end state and each series' minima."""
    call = "events.MinimaDetector.feed_derivative"
    probe = Recorder(call)
    analyzer = StreamingAnalyzer(recording, PARAMS, probe)
    n = len(recording["L"].imu)
    for a in range(0, n, ROWS):
        b, p = a + ROWS, a * 2 // 5  # 4 bend rows per 10 IMU rows
        chunk = {
            side: (
                ImuStream(leg.imu.t[a:b], leg.imu.accel[a:b], leg.imu.gyro[a:b]),
                BendStream(leg.bend.t[p : p + 4], leg.bend.angle_deg[p : p + 4]),
            )
            for side, leg in recording.items()
        }
        analyzer.feed(chunk, b / IMU_HZ)
    result = analyzer.finish(n / IMU_HZ)

    def series(name):
        # The live 25 Hz series, as its detector holds it.
        det = analyzer.series[name].detector
        return UniformSeries(det.t0, det.rate_hz, np.array(det.values))

    quad = AngleQuad(series("knee_L"), series("knee_R"), series("hip_L"), series("hip_R"))
    events = {name: [] for name in SERIES}
    for found in probe.returns[call]:
        for ev in found:
            events[ev.series].append(ev)
    states = {side: leg.state for side, leg in analyzer.legs.items()}
    return (quad, result.steps, result.strides, result.asymmetry, states), events


def bits(quad, steps, strides, asymmetry, states):
    """The outputs as bytes and reprs: equal only if every float has the same bits."""
    return (
        [quad.series(name).values.tobytes() for name in SERIES],
        [quad.series(name).t0.hex() for name in SERIES],
        repr(steps),
        repr(strides),
        repr(asymmetry),
        repr(states),
    )


def test_live_chunks_equal_batch(recording):
    outputs, events = live(recording)
    want = batch(recording)
    assert bits(*outputs) == bits(*want)
    quad, steps = want[0], want[1]
    assert len(steps) >= 12
    assert repr(steps) == repr(attach_lengths(segment_steps(quad), PARAMS))
    assert repr(want[2]) == repr(stride_metrics(steps))
    for name, got in events.items():
        assert repr(got) == repr(detect_minima(quad.series(name), series_id=name))


def test_kernel_and_python_loops_give_the_same_bits(compiled_kernel, recording, python_loops):
    def outputs():
        live_outputs, events = live(recording)
        return bits(*batch(recording)), bits(*live_outputs), repr(events)

    with_kernel = outputs()
    python_loops()
    assert outputs() == with_kernel
