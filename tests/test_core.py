import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from gaitlab.calibrate import AngleBias
from gaitlab.core import (
    EventAngles,
    GaitAsymmetry,
    StaticParams,
    StepMeasurement,
    Stride,
    angle_matrix,
    attach_lengths,
    gait_asymmetry,
    step_length,
    stride_metrics,
)
from gaitlab.errors import GaitInputError, SegmentationError


def oracle_step_length(l1, l2, d5, alpha_f, beta_f, alpha_b, beta_b):
    """Independent evaluation of the five projection components."""
    rad = math.radians
    d1 = l2 * math.sin(rad(alpha_f) - rad(beta_f))
    d2 = l1 * math.sin(rad(alpha_f))
    d3 = l1 * math.sin(-rad(alpha_b))
    d4 = l2 * math.sin(rad(beta_b) - rad(alpha_b))
    return d1, d2, d3, d4, d5, d1 + d2 + d3 + d4 + d5


PARAMS = StaticParams(30.0, 45.0, 14.0)


def make_step(index, side, length, t_front, t_back=None):
    return StepMeasurement(
        index=index,
        front_side=side,
        angles=EventAngles(20.0, 10.0, -8.0, 15.0),
        t_front_event=t_front,
        t_back_event=t_back if t_back is not None else t_front + 0.1,
        length_cm=length,
    )


class TestStepLength:
    def test_standing_only_d5_survives(self):
        out = step_length(PARAMS, EventAngles(0.0, 0.0, 0.0, 0.0))
        assert out.total == 14.0
        assert out.d1 == out.d2 == out.d3 == out.d4 == 0.0

    def test_back_limb_behind_torso(self):
        # alpha_b negative: every projection adds.
        out = step_length(PARAMS, EventAngles(30.0, 10.0, -10.0, 15.0))
        assert out.d1 == pytest.approx(15.390906449655093, abs=1e-9)
        assert out.d2 == pytest.approx(15.0, abs=1e-9)
        assert out.d3 == pytest.approx(5.209445329914876, abs=1e-9)
        assert out.d4 == pytest.approx(19.017821778331475, abs=1e-9)
        assert out.total == pytest.approx(68.62, abs=0.01)

    def test_back_limb_in_front_d3_subtracts(self):
        out = step_length(PARAMS, EventAngles(30.0, 10.0, 5.0, 15.0))
        assert out.d3 == pytest.approx(-2.614672282429745, abs=1e-9)
        assert out.d4 == pytest.approx(7.814167995011865, abs=1e-9)
        assert out.total == pytest.approx(49.59, abs=0.01)

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            l1, l2, d5 = rng.uniform(15, 50), rng.uniform(20, 60), rng.uniform(8, 25)
            af, bf = rng.uniform(-40, 45), rng.uniform(0, 60)
            ab, bb = rng.uniform(-45, 40), rng.uniform(0, 60)
            got = step_length(StaticParams(l1, l2, d5), EventAngles(af, bf, ab, bb))
            *_, want = oracle_step_length(l1, l2, d5, af, bf, ab, bb)
            assert got.total == pytest.approx(want, abs=1e-9)

    def test_total_is_exact_component_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            angles = EventAngles(*rng.uniform(-60, 60, size=4))
            out = step_length(PARAMS, angles)
            assert abs(out.total - (out.d1 + out.d2 + out.d3 + out.d4 + out.d5)) < 1e-12

    def test_back_hip_sign_flips_only_d3_d4(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0.5, 30)
            neg = step_length(PARAMS, EventAngles(25.0, 10.0, -x, 15.0))
            pos = step_length(PARAMS, EventAngles(25.0, 10.0, +x, 15.0))
            assert neg.d1 == pos.d1 and neg.d2 == pos.d2
            assert neg.d3 == -pos.d3

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        angles = EventAngles(28.0, 9.0, -7.0, 14.0)
        base = step_length(PARAMS, angles).total
        for _ in range(50):
            c = rng.uniform(0.1, 5.0)
            scaled = step_length(
                StaticParams(30.0 * c, 45.0 * c, 14.0 * c), angles
            ).total
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_rejects_bad_angles(self):
        with pytest.raises(GaitInputError):
            step_length(PARAMS, EventAngles(float("nan"), 0, 0, 0))
        with pytest.raises(GaitInputError):
            step_length(PARAMS, EventAngles(181.0, 0, 0, 0))

    def test_rejects_bad_params(self):
        with pytest.raises(GaitInputError):
            StaticParams(-1.0, 45.0, 14.0)
        with pytest.raises(GaitInputError):
            StaticParams(30.0, 0.0, 14.0)

    def test_implausible_params_warn_but_build(self):
        with pytest.warns(UserWarning):
            StaticParams(80.0, 40.0, 14.0)


class TestAttachLengths:
    def test_batch_size_does_not_change_bits(self):
        # The live path attaches lengths one step at a time and must equal
        # the batch path bit for bit.
        def bits(steps):
            lengths = np.array([[s.length_cm] for s in steps])
            return np.hstack([angle_matrix(steps), lengths]).view(np.uint64)

        rng = np.random.default_rng(21)
        steps = [
            StepMeasurement(
                index=i,
                front_side="LR"[i % 2],
                angles=EventAngles(
                    rng.uniform(15, 35),
                    rng.uniform(0, 20),
                    rng.uniform(-20, 5),
                    rng.uniform(5, 25),
                ),
                t_front_event=0.5 * i,
                t_back_event=0.5 * i + 0.1,
            )
            for i in range(200)
        ]
        for bias in (None, AngleBias(1.5, -0.7, 2.0, -1.2)):
            whole = attach_lengths(steps, PARAMS, bias)
            single = [attach_lengths([s], PARAMS, bias)[0] for s in steps]
            assert np.array_equal(bits(whole), bits(single))
            shift = np.zeros(4) if bias is None else bias.as_array()
            assert np.array_equal(angle_matrix(whole), angle_matrix(steps) + shift)
            assert [s.length_cm for s in whole] == [
                step_length(PARAMS, s.angles).total for s in whole
            ]


class TestStrideMetrics:
    def test_stride_length_is_step_sum(self):
        steps = [make_step(0, "L", 60.0, 0.0), make_step(1, "R", 62.0, 0.5)]
        strides = stride_metrics(steps)
        assert len(strides) == 1
        assert strides[0].length_cm == pytest.approx(122.0)

    def test_velocity_five_strides(self):
        # 10 steps of 60 cm, one step each 0.6 s: each stride is 1.2 m / 1.2 s.
        steps = [
            make_step(i, "LR"[i % 2], 60.0, 0.6 * i, 0.6 * i + 0.12)
            for i in range(10)
        ]
        strides = stride_metrics(steps)
        assert len(strides) == 5
        last = strides[-1]
        assert not last.velocity_partial
        # five strides x 1.2 m over 6.0 s
        assert last.velocity_mps == pytest.approx(1.0, abs=1e-12)
        assert all(s.velocity_partial for s in strides[:-1])

    def test_stance_swing_split(self):
        # Cycle 1.0 s: stance 0.6 s, swing 0.4 s. Back event lags front by 0.1 s.
        steps = [
            make_step(i, "LR"[i % 2], 60.0, 0.5 * i, 0.5 * i + 0.1) for i in range(8)
        ]
        strides = stride_metrics(steps)
        for s in strides:
            assert s.stride_time_s == pytest.approx(1.0, abs=1e-12)
            assert s.stance_time_s == pytest.approx(0.6, abs=1e-12)
            assert s.swing_time_s == pytest.approx(0.4, abs=1e-12)

    def test_final_stride_time_extrapolates(self):
        steps = [make_step(0, "L", 60.0, 0.0), make_step(1, "R", 60.0, 0.5)]
        (stride,) = stride_metrics(steps)
        assert stride.stride_time_s == pytest.approx(1.0)

    def test_non_alternating_sides_rejected(self):
        steps = [make_step(0, "L", 60.0, 0.0), make_step(1, "L", 60.0, 0.5)]
        with pytest.raises(SegmentationError):
            stride_metrics(steps)

    def test_too_few_steps_rejected(self):
        with pytest.raises(SegmentationError):
            stride_metrics([make_step(0, "L", 60.0, 0.0)])


class TestGaitAsymmetry:
    def stride_with(self, l_left, l_right):
        steps = [make_step(0, "L", l_left, 0.0), make_step(1, "R", l_right, 0.5)]
        return stride_metrics(steps)[0]

    def test_identical_steps_zero(self):
        assert gait_asymmetry(self.stride_with(60.0, 60.0)).percent == 0.0

    def test_worked_example(self):
        assert gait_asymmetry(self.stride_with(60.0, 40.0)).percent == pytest.approx(
            40.0
        )

    def test_symmetric_under_side_swap(self):
        a = gait_asymmetry(self.stride_with(55.0, 70.0)).percent
        b = gait_asymmetry(self.stride_with(70.0, 55.0)).percent
        assert a == pytest.approx(b)

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            l, r = rng.uniform(20, 80, size=2)
            c = rng.uniform(0.2, 4.0)
            assert gait_asymmetry(self.stride_with(l, r)).percent == pytest.approx(
                gait_asymmetry(self.stride_with(c * l, c * r)).percent, rel=1e-9
            )

    def test_bounded_0_200(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            l, r = rng.uniform(1, 120, size=2)
            pct = gait_asymmetry(self.stride_with(l, r)).percent
            assert 0.0 <= pct <= 200.0

    def test_nonpositive_length_rejected(self):
        stride = Stride(
            index=0,
            step_a=make_step(0, "L", -1.0, 0.0),
            step_b=make_step(1, "R", 60.0, 0.5),
            length_cm=59.0,
            stride_time_s=1.0,
            stance_time_s=0.6,
            swing_time_s=0.4,
            velocity_mps=0.59,
        )
        with pytest.raises(GaitInputError):
            gait_asymmetry(stride)


ANGLE_FIELDS = ("alpha_f", "beta_f", "alpha_b", "beta_b")


class TestEventAnglesCheck:
    """The one chained range test raises the per-field messages it replaced."""

    @pytest.mark.parametrize("field", ANGLE_FIELDS)
    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "{} is not finite"),
            (math.inf, "{} is not finite"),
            (-math.inf, "{} is not finite"),
            (180.0000001, r"\|{}\| exceeds 180 deg"),
            (-180.0000001, r"\|{}\| exceeds 180 deg"),
        ],
    )
    def test_bad_angle_names_the_field(self, field, value, message):
        angles = dict.fromkeys(ANGLE_FIELDS, 10.0) | {field: value}
        with pytest.raises(GaitInputError, match=message.format(field)):
            EventAngles(**angles)

    @pytest.mark.parametrize("field", ANGLE_FIELDS)
    @pytest.mark.parametrize("value", [180.0, -180.0])
    def test_exactly_180_accepted(self, field, value):
        angles = dict.fromkeys(ANGLE_FIELDS, 10.0) | {field: value}
        assert getattr(EventAngles(**angles), field) == value


class TestStepMeasurementTimes:
    @pytest.mark.parametrize("field", ["t_front_event", "t_back_event"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, field, value):
        times = {"t_front_event": 1.0, "t_back_event": 1.2} | {field: value}
        with pytest.raises(GaitInputError, match="finite"):
            StepMeasurement(0, "L", EventAngles(20.0, 10.0, -8.0, 15.0), **times)

    def test_back_before_front_rejected(self):
        with pytest.raises(GaitInputError, match="precedes"):
            make_step(0, "L", 60.0, 1.0, t_back=0.9)

    def test_simultaneous_events_accepted(self):
        assert make_step(0, "L", 60.0, 1.0, t_back=1.0).t_back_event == 1.0


def one_of_each():
    """A fixed instance of each step record, the stride holding the other two kinds."""
    angles = EventAngles(20.0, 10.0, -8.0, 15.0)
    step_a = StepMeasurement(0, "L", angles, 1.0, 1.25, 60.5)
    step_b = StepMeasurement(1, "R", EventAngles(18.0, 12.0, -6.0, 14.0), 1.5, 1.75, 59.5)
    stride = Stride(0, step_a, step_b, 120.0, 1.0, 0.75, 0.25, 1.2, True)
    return [angles, step_a, stride, GaitAsymmetry(0, 1.5)]


RECORDS = one_of_each()
RECORD_IDS = [type(r).__name__ for r in RECORDS]


class TestRecordsAreFrozenDataclasses:
    """The step records keep a generated frozen dataclass's behaviour."""

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_fields_in_field_order(self, record):
        names = [f.name for f in dataclasses.fields(record)]
        assert list(vars(record)) == names
        assert record == type(record)(**{n: getattr(record, n) for n in names})

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_replace_changes_one_field(self, record):
        first = dataclasses.fields(record)[0].name
        changed = dataclasses.replace(record, **{first: 7})
        assert type(changed) is type(record) and getattr(changed, first) == 7
        assert changed != record
        assert dataclasses.replace(changed, **{first: getattr(record, first)}) == record

    def test_replace_validates(self):
        angles, step = RECORDS[0], RECORDS[1]
        with pytest.raises(GaitInputError, match="alpha_b is not finite"):
            dataclasses.replace(angles, alpha_b=math.nan)
        with pytest.raises(GaitInputError, match="precedes"):
            dataclasses.replace(step, t_back_event=0.5)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_assignment_raises(self, record):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1

    def test_equal_records_hash_equal(self):
        for a, b in zip(one_of_each(), RECORDS):
            assert a is not b and a == b and hash(a) == hash(b)
        angles = RECORDS[0]
        assert EventAngles(20.0, 10.0, -8.0, 15.5) != angles
        assert StepMeasurement(0, "L", angles, 1.0, 1.25) != RECORDS[1]  # NaN length

    def test_defaults(self):
        step = StepMeasurement(0, "L", RECORDS[0], 1.0, 1.25)
        assert math.isnan(step.length_cm)
        stride = Stride(0, step, step, 1.0, 1.0, 0.5, 0.5, 1.0)
        assert stride.velocity_partial is False

    def test_pickle_round_trip_keeps_the_bytes(self):
        stride, asym = RECORDS[2], RECORDS[3]
        data = pickle.dumps((stride, asym), protocol=4)
        assert pickle.loads(data) == (stride, asym)
        # The digest of the same pickle of records built by the generated
        # dataclass __init__.
        assert hashlib.sha256(data).hexdigest() == (
            "e7debd368764af7c122c8bd0f5e2ac358a8fa4292b1d68110e8b8ada3ffb80ca"
        )

    @pytest.mark.parametrize(
        "angles, message",
        [
            ((math.nan, 10.0, -8.0, 15.0), "alpha_f is not finite: nan"),
            ((20.0, 10.0, -8.0, -math.inf), "beta_b is not finite: -inf"),
            ((20.0, 180.5, -8.0, 15.0), "|beta_f| exceeds 180 deg: 180.5"),
            # The first bad field in field order is the one named.
            ((20.0, 10.0, -200.0, math.nan), "|alpha_b| exceeds 180 deg: -200.0"),
        ],
    )
    def test_angle_messages(self, angles, message):
        with pytest.raises(GaitInputError) as raised:
            EventAngles(*angles)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "times, message",
        [
            ((math.nan, 1.2), "step 3: event times must be finite, got front nan s, back 1.2 s"),
            ((1.0, math.inf), "step 3: event times must be finite, got front 1.0 s, back inf s"),
            ((1.0, 0.9), "step 3: back event at 0.9 s precedes front event at 1.0 s"),
        ],
    )
    def test_event_time_messages(self, times, message):
        with pytest.raises(GaitInputError) as raised:
            StepMeasurement(3, "L", RECORDS[0], *times)
        assert str(raised.value) == message
