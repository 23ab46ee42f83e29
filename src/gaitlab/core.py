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


class StridePairer:
    """Pairs steps into strides as they arrive, in runs of alternating steps.

    The stride rule, which `stride_metrics` applies to a whole list: within
    a run, stride i pairs the run's steps 2i and 2i+1 (step_a and step_b).
    Its time spans one full gait cycle of the tracked (step_a front) leg,
    from step_a's front event to the next step's; at the end of the run it
    is twice the half-cycle from step_a's front event to step_b's. Stance
    runs from the tracked leg's initial contact (step_a's front knee
    minimum) to its foot-off (its hip minimum, step_b's back event); swing
    is the rest of the cycle. Velocity averages the lengths over the times
    of up to VELOCITY_WINDOW_STRIDES strides of the run, ending at the
    current one; a shorter window is flagged partial.

    A step whose front side repeats the previous step's ends the run and
    starts the next one: the open stride, if it has both steps, is timed
    as at the end, a lone open step pairs with nothing, and the velocity
    window starts again. Stride indices run on across runs.

    `add(steps)` returns the strides those steps confirm (each by the step
    after it) and `finish()` the last one, if the open stride has both
    steps. The pairer holds only the open stride's steps and the lengths
    and times of the run's last VELOCITY_WINDOW_STRIDES strides.
    """

    def __init__(self):
        self._index = 0  # the next stride's
        self._open: list[StepMeasurement] = []
        self._lengths: list[float] = []
        self._times: list[float] = []

    def add(self, steps: Sequence[StepMeasurement]) -> list[Stride]:
        out = []
        open_ = self._open
        for s in steps:
            if open_ and open_[-1].front_side == s.front_side:
                out += self.finish()
            elif len(open_) == 2:
                out.append(self._stride(s))
                open_.clear()
            open_.append(s)
        return out

    def finish(self) -> list[Stride]:
        """End the run: its open stride, if it has both steps, and no other."""
        out = [self._stride(None)] if len(self._open) == 2 else []
        del self._open[:], self._lengths[:], self._times[:]
        return out

    def _stride(self, next_step: StepMeasurement | None) -> Stride:
        """The open stride, timed by `next_step`, or at the end of its run if None."""
        a, b = self._open
        t_a = a.t_front_event
        time = 2.0 * (b.t_front_event - t_a) if next_step is None else next_step.t_front_event - t_a
        stance = b.t_back_event - t_a
        length = a.length_cm + b.length_cm
        self._lengths.append(length)
        self._times.append(time)
        if len(self._times) > VELOCITY_WINDOW_STRIDES:
            del self._lengths[0], self._times[0]
        span_time = sum(self._times)
        if span_time <= 0:
            raise SegmentationError(f"stride {self._index}: non-positive window time {span_time}")
        self._index += 1
        # Positional arguments, in field order: a frozen dataclass matches
        # keywords slowly.
        return Stride(
            self._index - 1, a, b, length, time, stance, time - stance,
            (sum(self._lengths) / 100.0) / span_time, len(self._lengths) < VELOCITY_WINDOW_STRIDES,
        )


def stride_metrics(steps: Sequence[StepMeasurement]) -> list[Stride]:
    """The strides of one run of alternating steps, by `StridePairer`'s rule.

    Raises `SegmentationError` on fewer than two steps, or on two
    consecutive steps with the same front side.
    """
    if len(steps) < 2:
        raise SegmentationError(f"need at least 2 steps, got {len(steps)}")
    for prev, cur in zip(steps, steps[1:]):
        if prev.front_side == cur.front_side:
            raise SegmentationError(
                f"steps {prev.index} and {cur.index} both have front side "
                f"{cur.front_side}; segmentation is inconsistent"
            )
    pairer = StridePairer()
    return pairer.add(steps) + pairer.finish()


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
