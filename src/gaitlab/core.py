"""Closed-form sagittal-plane gait model.

The step length is the sum of five ground projections of the two legs at
the key instants of a step (front limb at initial contact, back limb at
foot-off):

    d1 = l2 * sin(alpha_f - beta_f)     front leg below the knee
    d2 = l1 * sin(alpha_f)              front thigh
    d3 = l1 * sin(-alpha_b)             back thigh
    d4 = l2 * sin(beta_b - alpha_b)     back leg below the knee
    d5                                  thigh diameter below the gluteus
    D  = d1 + d2 + d3 + d4 + d5

Hip angles (alpha) are signed: positive with the thigh in front of the
torso, negative behind. Knee angles (beta) are flexion angles, nonnegative
for real gait. The sign convention on alpha_b makes the same formula cover
both back-limb postures (thigh behind the torso: d3 adds; thigh parallel or
slightly in front: d3 subtracts) with no branching.

Stride length is the sum of two consecutive step lengths; gait velocity is
computed over five-stride windows. All lengths are centimeters, times are
seconds, angles are degrees at the API surface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import GaitInputError, SegmentationError

Side = Literal["L", "R"]

VELOCITY_WINDOW_STRIDES = 5


def _check_angle(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise GaitInputError(f"{name} is not finite: {value!r}")
    if abs(value) > 180.0:
        raise GaitInputError(f"|{name}| exceeds 180 deg: {value!r}")


@dataclass(frozen=True)
class StaticParams:
    """Per-user body parameters of the step-length model.

    l1_cm: gluteus-to-popliteus thigh segment length.
    l2_cm: popliteus-to-calcaneus lower leg length.
    d5_cm: thigh diameter below the gluteus.
    """

    l1_cm: float
    l2_cm: float
    d5_cm: float

    def __post_init__(self):
        for name in ("l1_cm", "l2_cm", "d5_cm"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise GaitInputError(f"{name} must be finite and > 0, got {v!r}")
        if self.l1_cm >= self.l2_cm + 30.0:
            warnings.warn(
                f"implausible segment lengths: l1={self.l1_cm} cm vs "
                f"l2={self.l2_cm} cm (expected l1 < l2 + 30 cm)",
                stacklevel=2,
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l1_cm, self.l2_cm, self.d5_cm)


# The step records, EventAngles, StepMeasurement, Stride and GaitAsymmetry,
# are frozen dataclasses with their own __init__, since several are built
# per detected step: it validates in its own frame, with no __post_init__
# call, and sets the fields in field order, so pickles, `==`, `hash`, `repr`
# and `dataclasses.replace` are unchanged. StepMeasurement, Stride and
# GaitAsymmetry write straight into the instance __dict__, which skips the
# object.__setattr__ call per field. EventAngles does not: on CPython 3.11
# an instance whose __dict__ was read keeps its fields in a real dict, not
# inline, and every later attribute read is about twice as slow, while
# each step length and calibration feature reads all four angles.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class EventAngles:
    """Hip and knee angles (degrees) at the two key instants of one step."""

    alpha_f: float
    beta_f: float
    alpha_b: float
    beta_b: float

    def __init__(self, alpha_f: float, beta_f: float, alpha_b: float, beta_b: float):
        # One chained test for the usual case; NaN and +-inf fail it too.
        # Only a failure pays for the per-field checks, which name the angle.
        if not (
            -180.0 <= alpha_f <= 180.0
            and -180.0 <= beta_f <= 180.0
            and -180.0 <= alpha_b <= 180.0
            and -180.0 <= beta_b <= 180.0
        ):
            _check_angle("alpha_f", alpha_f)
            _check_angle("beta_f", beta_f)
            _check_angle("alpha_b", alpha_b)
            _check_angle("beta_b", beta_b)
        _set(self, "alpha_f", alpha_f)
        _set(self, "beta_f", beta_f)
        _set(self, "alpha_b", alpha_b)
        _set(self, "beta_b", beta_b)


@dataclass(frozen=True)
class StepLengthBreakdown:
    """One step length split into its five signed components (cm)."""

    d1: float
    d2: float
    d3: float
    d4: float
    d5: float
    total: float


@dataclass(frozen=True, init=False)
class StepMeasurement:
    """One detected step: event angles, event times, and computed length."""

    index: int
    front_side: Side
    angles: EventAngles
    t_front_event: float
    t_back_event: float
    length_cm: float = math.nan

    def __init__(
        self,
        index: int,
        front_side: Side,
        angles: EventAngles,
        t_front_event: float,
        t_back_event: float,
        length_cm: float = math.nan,
    ):
        # NaN and +-inf fail the chained test, as a back event before the
        # front one does.
        if not (-math.inf < t_front_event <= t_back_event < math.inf):
            if not (math.isfinite(t_front_event) and math.isfinite(t_back_event)):
                raise GaitInputError(
                    f"step {index}: event times must be finite, got front "
                    f"{t_front_event} s, back {t_back_event} s"
                )
            raise GaitInputError(
                f"step {index}: back event at {t_back_event} s precedes "
                f"front event at {t_front_event} s"
            )
        d = self.__dict__
        d["index"] = index
        d["front_side"] = front_side
        d["angles"] = angles
        d["t_front_event"] = t_front_event
        d["t_back_event"] = t_back_event
        d["length_cm"] = length_cm


@dataclass(frozen=True, init=False)
class Stride:
    """Two consecutive steps of one gait cycle plus derived timing."""

    index: int
    step_a: StepMeasurement
    step_b: StepMeasurement
    length_cm: float
    stride_time_s: float
    stance_time_s: float
    swing_time_s: float
    velocity_mps: float
    velocity_partial: bool = field(default=False)

    def __init__(
        self,
        index: int,
        step_a: StepMeasurement,
        step_b: StepMeasurement,
        length_cm: float,
        stride_time_s: float,
        stance_time_s: float,
        swing_time_s: float,
        velocity_mps: float,
        velocity_partial: bool = False,
    ):
        d = self.__dict__
        d["index"] = index
        d["step_a"] = step_a
        d["step_b"] = step_b
        d["length_cm"] = length_cm
        d["stride_time_s"] = stride_time_s
        d["stance_time_s"] = stance_time_s
        d["swing_time_s"] = swing_time_s
        d["velocity_mps"] = velocity_mps
        d["velocity_partial"] = velocity_partial


@dataclass(frozen=True, init=False)
class GaitAsymmetry:
    """Percentage left/right step-length asymmetry of one stride."""

    stride_index: int
    percent: float

    def __init__(self, stride_index: int, percent: float):
        d = self.__dict__
        d["stride_index"] = stride_index
        d["percent"] = percent


def step_length(params: StaticParams, angles: EventAngles) -> StepLengthBreakdown:
    """Evaluate the five-component step length model.

    Angles are degrees; the result is centimeters. Both back-limb postures
    are covered by the sign of alpha_b alone.
    """
    d1, d2, d3, d4, d5 = _components(params, angles)
    return StepLengthBreakdown(d1, d2, d3, d4, d5, d1 + d2 + d3 + d4 + d5)


def _components(params: StaticParams, angles: EventAngles) -> tuple[float, ...]:
    """The five signed components d1..d5 of the step-length model (cm)."""
    af = math.radians(angles.alpha_f)
    bf = math.radians(angles.beta_f)
    ab = math.radians(angles.alpha_b)
    bb = math.radians(angles.beta_b)
    return (
        params.l2_cm * math.sin(af - bf),
        params.l1_cm * math.sin(af),
        params.l1_cm * math.sin(-ab),
        params.l2_cm * math.sin(bb - ab),
        params.d5_cm,
    )


def angle_matrix(steps: Sequence[StepMeasurement]) -> np.ndarray:
    """(N, 4) event angles of the steps: [alpha_f, beta_f, alpha_b, beta_b]."""
    rows = [(a.alpha_f, a.beta_f, a.alpha_b, a.beta_b) for a in (s.angles for s in steps)]
    return np.array(rows, dtype=float).reshape(-1, 4)


def step_features(angles_deg: np.ndarray) -> np.ndarray:
    """(N, 3) linear features of an (N, 4) angle array in degrees.

    Row i is [d2 + d3, d1 + d4, 1] at unit parameters, so its dot product
    with (l1, l2, d5) is `step_length` of row i, to rounding.
    """
    a = np.radians(angles_deg)
    af, bf, ab, bb = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    out = np.empty((len(a), 3))
    np.subtract(np.sin(af), np.sin(ab), out=out[:, 0])
    np.add(np.sin(af - bf), np.sin(bb - ab), out=out[:, 1])
    out[:, 2] = 1.0
    return out


def attach_lengths(
    steps: Sequence[StepMeasurement], params: StaticParams, bias=None
) -> list[StepMeasurement]:
    """Fill step lengths from the kinematic model, applying angle biases.

    `bias` is an additive per-angle correction (see gaitlab.calibrate); the
    corrected angles replace the measured ones on the returned steps. Each
    step is evaluated on its own, so the bits do not depend on how steps
    are split between calls: `gaitlab.pipeline.StreamingAnalyzer`, which
    calls it once per release, for the steps that release completes,
    relies on that. The length is `step_length(params, a).total`, summed in
    the same order without building the breakdown.
    """
    out = []
    for s in steps:
        a = s.angles
        if bias is not None:
            a = EventAngles(
                a.alpha_f + bias.alpha_f_deg,
                a.beta_f + bias.beta_f_deg,
                a.alpha_b + bias.alpha_b_deg,
                a.beta_b + bias.beta_b_deg,
            )
        d1, d2, d3, d4, d5 = _components(params, a)
        # Positional arguments: a frozen dataclass matches keywords slowly.
        out.append(
            StepMeasurement(
                s.index, s.front_side, a, s.t_front_event, s.t_back_event,
                d1 + d2 + d3 + d4 + d5,
            )
        )
    return out


def stride_metrics(steps: Sequence[StepMeasurement]) -> list[Stride]:
    """Pair consecutive steps into strides and derive timing and velocity.

    Strides pair steps disjointly: stride i is (steps[2i], steps[2i+1]).
    Stride time spans one full gait cycle of the tracked (step_a front) leg,
    i.e. from step_a's front event to the next stride's step_a front event;
    the final stride extrapolates from its half-cycle. Stance time runs from
    the tracked leg's initial contact (front knee minimum) to its foot-off
    (its hip minimum, which is the back event of step_b); swing is the rest
    of the cycle. Velocity is averaged over a sliding window of up to
    VELOCITY_WINDOW_STRIDES strides ending at the current stride; windows
    shorter than that are flagged partial.
    """
    if len(steps) < 2:
        raise SegmentationError(f"need at least 2 steps, got {len(steps)}")
    for prev, cur in zip(steps, steps[1:]):
        if prev.front_side == cur.front_side:
            raise SegmentationError(
                f"steps {prev.index} and {cur.index} both have front side "
                f"{cur.front_side}; segmentation is inconsistent"
            )

    # One pass: stride i needs the lengths and times of strides i-4..i only.
    lengths = []
    times = []
    strides = []
    for i in range(len(steps) // 2):
        a, b = steps[2 * i], steps[2 * i + 1]
        length = a.length_cm + b.length_cm
        stance = b.t_back_event - a.t_front_event
        if 2 * i + 2 < len(steps):
            time = steps[2 * i + 2].t_front_event - a.t_front_event
        else:
            time = 2.0 * (b.t_front_event - a.t_front_event)
        lengths.append(length)
        times.append(time)
        lo = max(0, i - VELOCITY_WINDOW_STRIDES + 1)
        span_len = sum(lengths[lo:])
        span_time = sum(times[lo:])
        if span_time <= 0:
            raise SegmentationError(f"stride {i}: non-positive window time {span_time}")
        # Positional arguments, in field order: a frozen dataclass matches
        # keywords slowly.
        strides.append(
            Stride(
                i, a, b, length, time, stance, time - stance,
                (span_len / 100.0) / span_time,
                (i - lo + 1) < VELOCITY_WINDOW_STRIDES,
            )
        )
    return strides


def gait_asymmetry(stride: Stride) -> GaitAsymmetry:
    """Percentage step-length asymmetry of one stride.

    percent = |L_left - L_right| / (0.5 * (L_left + L_right)) * 100, which is
    bounded by [0, 200] for positive step lengths.
    """
    if stride.step_a.front_side == "L":
        left, right = stride.step_a.length_cm, stride.step_b.length_cm
    else:
        left, right = stride.step_b.length_cm, stride.step_a.length_cm
    if not (left > 0 and right > 0):
        raise GaitInputError(
            f"stride {stride.index}: step lengths must be positive, "
            f"got L={left}, R={right}"
        )
    percent = abs(left - right) / (0.5 * (left + right)) * 100.0
    return GaitAsymmetry(stride.index, percent)
