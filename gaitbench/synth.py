"""Seeded synthetic inputs for the gaitlab benchmark.

Walks. Each leg follows a periodic gait pattern in its own phase; the right
leg runs half a cycle behind the left. Within a cycle (phase 0..1):

    knee(phi) = knee_min + knee_amp * m(phi) * bump(warp(phi))
    hip(phi)  = hip_min + hip_amp * m(phi) * (1 + cos(2 pi (phi - 0.1)))

`bump` is a von Mises bump that is 0 only at phase 0, so the knee has one
minimum per cycle, at initial contact. The hip term in brackets is 0 only at
phase 0.6, so the hip has one minimum per cycle, at foot-off. `m` is a slow
amplitude modulation that varies the angles at the other events from step to
step without moving either minimum. Cadence drifts slowly around a per-walk
mean, and the walk ramps in from a standing posture over the first seconds.

A step opens at the front leg's knee minimum and closes at the other leg's
next hip minimum, so the true event instants are known exactly from the
phase, and the true step length is `core.step_length` at the true angles at
those instants.

The raw streams are what the sensors would read: a 250 Hz thigh IMU (gravity
in g plus the sagittal gyro rate in deg/s, rotated into the sensor's mounting
frame, plus a constant bias and white noise per channel) and a 100 Hz knee
bend sensor (angle plus offset plus noise). A standing window before the walk
carries the same biases, so `signal.compute_offsets` can remove them.

Cohort. Per-step event angles of a user, measured with constant per-angle
biases and noise, reference step lengths with noise, a true body-parameter set
inside the +-10% box around the hand-measured nominal one, and for shifted
users a parameter change halfway through the session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaitlab.calibrate import PARAM_BOX_FRACTION, ReferenceStep
from gaitlab.core import EventAngles, Side, StaticParams, StepMeasurement, step_length
from gaitlab.signal import BendStream, ImuStream

IMU_HZ = 250.0
BEND_HZ = 100.0
STAND_S = 2.0
RAMP_S = 2.0  # the gait amplitude ramps in from standing over this time
TRUTH_MARGIN_S = 0.5  # truth starts this long after the ramp ...
TAIL_S = 1.5  # ... and ends this long before the stream does
CADENCE_RANGE_SPM = (90.0, 126.0)  # mean cadences of a set of walks, steps/min

HIP_MAX_PHASE = 0.1
HIP_MIN_PHASE = HIP_MAX_PHASE + 0.5
KNEE_KAPPA = 2.0
KNEE_WARP = -0.7  # moves the knee's swing peak later in the cycle
LEG_PHASE = {"L": 0.0, "R": 0.5}
OTHER: dict[str, Side] = {"L": "R", "R": "L"}

# Rotations taking canonical thigh-frame vectors (x forward, y left, z up)
# to sensor axes, one per mounting label: raw = canonical @ M, which
# `orientation.remap_mounting`'s raw @ M.T undoes. They follow that code, not
# its docstring: for "x" and "-x" the named sensor axis points to the right.
MOUNT_TO_SENSOR = {
    "y": np.eye(3),
    "-y": np.diag([-1.0, -1.0, 1.0]),
    "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "-x": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}
NON_Y_MOUNTS = ("-y", "x", "-x")


@dataclass(frozen=True)
class LegPattern:
    """Angle pattern of one leg as a function of its gait phase (degrees)."""

    hip_min: float
    hip_amp: float
    knee_min: float
    knee_amp: float
    mod_depth: float
    mod_cycles: float
    mod_phase: float

    def _mod(self, phi):
        return 1.0 + self.mod_depth * np.sin(2 * np.pi * phi / self.mod_cycles + self.mod_phase)

    def hip(self, phi):
        return self.hip_min + self.hip_amp * self._mod(phi) * (
            1.0 + np.cos(2 * np.pi * (phi - HIP_MAX_PHASE))
        )

    def knee(self, phi):
        psi = phi + KNEE_WARP * (1.0 - np.cos(2 * np.pi * phi)) / (2 * np.pi)
        k = KNEE_KAPPA
        bump = (np.exp(k * np.cos(2 * np.pi * (psi - 0.5))) - math.exp(-k)) / (
            math.exp(k) - math.exp(-k)
        )
        return self.knee_min + self.knee_amp * self._mod(phi) * bump


@dataclass(frozen=True)
class Cadence:
    """Left-leg phase phi(t) = phi0 + f0 t + slow drift; dphi/dt > 0."""

    f0: float
    drift: float
    drift_hz: float
    phi0: float

    def phase(self, t):
        w = 2 * np.pi * self.drift_hz
        return self.phi0 + self.f0 * t + self.f0 * self.drift * (1.0 - np.cos(w * t)) / w

    def rate(self, t):
        return self.f0 * (1.0 + self.drift * np.sin(2 * np.pi * self.drift_hz * t))

    def time_of(self, phi):
        """Invert phase(t) by Newton's method (phase is strictly increasing)."""
        phi = np.asarray(phi, dtype=float)
        t = (phi - self.phi0) / self.f0
        for _ in range(50):
            step = (self.phase(t) - phi) / self.rate(t)
            t = t - step
            if np.max(np.abs(step), initial=0.0) < 1e-13:
                break
        return t


@dataclass
class LegStreams:
    mounting_axis: str
    standing_imu: ImuStream
    standing_bend: BendStream
    imu: ImuStream
    bend: BendStream


@dataclass(frozen=True)
class TrueStep:
    front_side: Side
    t_front: float
    t_back: float
    angles: EventAngles
    length_cm: float


@dataclass
class Walk:
    params: StaticParams
    legs: dict[str, LegStreams]
    truth: list[TrueStep]
    duration_s: float
    cadence_spm: float

    def raw_samples(self) -> int:
        return sum(len(leg.imu) + len(leg.bend) for leg in self.legs.values())


class WalkModel:
    """Noise-free angle trajectories of both legs over time."""

    def __init__(self, cadence: Cadence, patterns: dict[str, LegPattern]):
        self.cadence = cadence
        self.patterns = patterns

    @staticmethod
    def envelope(t):
        x = np.clip(np.asarray(t, dtype=float) / RAMP_S, 0.0, 1.0)
        return x * x * (3.0 - 2.0 * x)

    def hip(self, side: str, t):
        phi = self.cadence.phase(t) + LEG_PHASE[side]
        return self.envelope(t) * self.patterns[side].hip(phi)

    def knee(self, side: str, t):
        phi = self.cadence.phase(t) + LEG_PHASE[side]
        return self.envelope(t) * self.patterns[side].knee(phi)

    def true_steps(self, params: StaticParams, duration_s: float) -> list[TrueStep]:
        """Steps whose events fall after the ramp and before the tail."""
        lo_t = RAMP_S + TRUTH_MARGIN_S
        hi_t = duration_s - TAIL_S
        phi_lo = float(self.cadence.phase(lo_t))
        phi_hi = float(self.cadence.phase(hi_t))
        steps = []
        n0 = math.floor(phi_lo) - 1
        for n in range(n0, math.ceil(phi_hi) + 1):
            for front in ("L", "R"):
                # Left-leg phase of the front knee minimum and of the other
                # leg's next hip minimum.
                phi_f = n - LEG_PHASE[front]
                phi_b = phi_f + HIP_MIN_PHASE - 0.5
                t_f, t_b = (float(x) for x in self.cadence.time_of([phi_f, phi_b]))
                if t_f < lo_t or t_b > hi_t:
                    continue
                back = OTHER[front]
                angles = EventAngles(
                    alpha_f=float(self.hip(front, t_f)),
                    beta_f=float(self.knee(front, t_f)),
                    alpha_b=float(self.hip(back, t_b)),
                    beta_b=float(self.knee(back, t_b)),
                )
                steps.append(
                    TrueStep(front, t_f, t_b, angles, step_length(params, angles).total)
                )
        steps.sort(key=lambda s: s.t_front)
        return steps


def _imu_frame(hip_deg, hip_rate_dps):
    """Canonical-frame accel (g) and gyro (deg/s) of a sagittal thigh."""
    r = np.radians(hip_deg)
    zeros = np.zeros_like(r)
    accel = np.stack([np.sin(r), zeros, np.cos(r)], axis=1)
    gyro = np.stack([zeros, -hip_rate_dps, zeros], axis=1)
    return accel, gyro


def _leg_streams(rng, model: WalkModel, side: str, mount: str, duration_s: float,
                 noise: float) -> LegStreams:
    m = MOUNT_TO_SENSOR[mount]
    accel_bias = rng.normal(0.0, 0.01, 3)
    gyro_bias = rng.normal(0.0, 0.4, 3)
    bend_offset = rng.normal(0.0, 1.5)

    def imu(t, hip, rate):
        accel, gyro = _imu_frame(hip, rate)
        n = len(t)
        accel = accel @ m + accel_bias + noise * rng.normal(0.0, 0.004, (n, 3))
        gyro = gyro @ m + gyro_bias + noise * rng.normal(0.0, 0.15, (n, 3))
        return ImuStream(t, accel, gyro)

    def bend(t, angle):
        return BendStream(t, angle + bend_offset + noise * rng.normal(0.0, 0.15, len(t)))

    n_stand_imu = int(STAND_S * IMU_HZ)
    n_stand_bend = int(STAND_S * BEND_HZ)
    t_si = np.arange(n_stand_imu) / IMU_HZ - STAND_S
    t_sb = np.arange(n_stand_bend) / BEND_HZ - STAND_S
    standing_imu = imu(t_si, np.zeros(n_stand_imu), np.zeros(n_stand_imu))
    standing_bend = bend(t_sb, np.zeros(n_stand_bend))

    t_imu = np.arange(int(round(duration_s * IMU_HZ))) / IMU_HZ
    t_bend = np.arange(int(round(duration_s * BEND_HZ))) / BEND_HZ
    h = 1e-4
    rate = (model.hip(side, t_imu + h) - model.hip(side, t_imu - h)) / (2 * h)
    return LegStreams(
        mounting_axis=mount,
        standing_imu=standing_imu,
        standing_bend=standing_bend,
        imu=imu(t_imu, model.hip(side, t_imu), rate),
        bend=bend(t_bend, model.knee(side, t_bend)),
    )


def make_walk(rng: np.random.Generator, duration_s: float, cadence_spm: float,
              noise: float = 1.0) -> Walk:
    """A two-leg walk at the given mean cadence (steps per minute).

    `noise` scales the sensor noise; the biases are always present because
    the offset calibration removes them exactly.
    """
    params = StaticParams(
        l1_cm=rng.uniform(27.0, 33.0), l2_cm=rng.uniform(41.0, 49.0), d5_cm=rng.uniform(12.0, 16.0)
    )
    cadence = Cadence(
        f0=cadence_spm / 120.0,
        drift=rng.uniform(0.02, 0.05),
        drift_hz=rng.uniform(0.04, 0.1),
        phi0=rng.uniform(0.0, 1.0),
    )
    patterns = {}
    for side in ("L", "R"):
        patterns[side] = LegPattern(
            hip_min=rng.uniform(-14.0, -10.0),
            hip_amp=rng.uniform(15.0, 18.0),
            knee_min=rng.uniform(3.0, 6.0),
            knee_amp=rng.uniform(50.0, 60.0),
            mod_depth=rng.uniform(0.03, 0.08),
            mod_cycles=rng.uniform(4.0, 9.0),
            mod_phase=rng.uniform(0.0, 2 * np.pi),
        )
    model = WalkModel(cadence, patterns)
    mounted = rng.choice(["L", "R"])
    legs = {
        side: _leg_streams(
            rng, model, side,
            str(rng.choice(NON_Y_MOUNTS)) if side == mounted else "y",
            duration_s, noise,
        )
        for side in ("L", "R")
    }
    return Walk(params, legs, model.true_steps(params, duration_s), duration_s, cadence_spm)


def make_walks(seed: int, count: int, duration_s: float) -> list[Walk]:
    """`count` walks with mean cadences stratified over CADENCE_RANGE_SPM."""
    rng = np.random.default_rng(seed)
    lo, hi = CADENCE_RANGE_SPM
    cadences = lo + (np.arange(count) + rng.uniform(0.0, 1.0, count)) * (hi - lo) / count
    return [make_walk(rng, duration_s, float(c)) for c in cadences]


@dataclass
class User:
    nominal: StaticParams
    steps: list[StepMeasurement]  # measured (biased, noisy) angles
    refs: list[ReferenceStep]  # noisy reference lengths
    true_lengths: np.ndarray


PARAM_SHIFT = np.array([0.96, 1.06, 1.08])  # multiplies (l1, l2, d5) mid-session
STEP_PERIOD_S = 0.55


def make_user(rng: np.random.Generator, n_steps: int, shifted: bool) -> User:
    nominal = np.array([rng.uniform(27.0, 33.0), rng.uniform(41.0, 49.0), rng.uniform(12.0, 16.0)])
    inside = 0.8 * PARAM_BOX_FRACTION
    true_w = nominal * (1.0 + rng.uniform(-inside, inside, 3))
    means = np.array([rng.uniform(22.0, 30.0), rng.uniform(6.0, 12.0),
                      rng.uniform(-13.0, -8.0), rng.uniform(28.0, 38.0)])
    spread = np.array([3.0, 2.0, 2.0, 3.0])
    bias = rng.uniform(-0.6, 0.6, 4) * 0.1 * np.abs(means)
    steps, refs, lengths = [], [], []
    for i in range(n_steps):
        w = true_w * PARAM_SHIFT if shifted and i >= n_steps // 2 else true_w
        a = means + spread * rng.standard_normal(4)
        true = EventAngles(*a)
        length = step_length(StaticParams(*w), true).total
        measured = a + bias + rng.normal(0.0, 0.3, 4)
        t = i * STEP_PERIOD_S
        steps.append(
            StepMeasurement(
                index=i,
                front_side="L" if i % 2 == 0 else "R",
                angles=EventAngles(*(float(x) for x in measured)),
                t_front_event=t,
                t_back_event=t + 0.1,
            )
        )
        refs.append(ReferenceStep(i, float(length + rng.normal(0.0, 0.8))))
        lengths.append(length)
    return User(StaticParams(*nominal), steps, refs, np.array(lengths))


def make_cohort(seed: int, count: int, n_steps: int) -> list[User]:
    """`count` users; every second one gets a mid-session parameter shift."""
    rng = np.random.default_rng(seed)
    return [make_user(rng, n_steps, shifted=bool(u % 2)) for u in range(count)]
