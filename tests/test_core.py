import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbench import synth
from gaitlab.calibrate import AngleBias
from gaitlab.core import (
    EventAngles,
    GaitAsymmetry,
    StaticParams,
    StepMeasurement,
    Stride,
    StridePairer,
    angle_matrix,
    attach_lengths,
    gait_asymmetry,
    step_length,
    stride_metrics,
)
from gaitlab.errors import GaitInputError, SegmentationError
from gaitlab.pipeline import analyze


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


def oracle_strides(steps):
    """The stride rule over one run, restated as an index loop: stride i
    pairs steps 2i and 2i+1 and is timed by step 2i+2's front event, the
    last by twice its half cycle; its velocity spans strides i-4..i."""
    strides = []
    for i in range(len(steps) // 2):
        a, b = steps[2 * i], steps[2 * i + 1]
        if 2 * i + 2 < len(steps):
            time = steps[2 * i + 2].t_front_event - a.t_front_event
        else:
            time = 2.0 * (b.t_front_event - a.t_front_event)
        length = a.length_cm + b.length_cm
        stance = b.t_back_event - a.t_front_event
        window = strides[max(0, i - 4) :]
        span_len = sum([s.length_cm for s in window] + [length])
        span_time = sum([s.stride_time_s for s in window] + [time])
        if span_time <= 0:
            raise SegmentationError(f"stride {i}: non-positive window time {span_time}")
        strides.append(
            Stride(i, a, b, length, time, stance, time - stance,
                   (span_len / 100.0) / span_time, len(window) + 1 < 5)
        )
    return strides


def outcome(pair, steps):
    """repr of the strides `pair(steps)` gives, or of the error it raises."""
    try:
        return repr(pair(steps))
    except SegmentationError as e:
        return repr(e)


def steps_at(sides, t_front, lengths=None, lags=None):
    n = len(sides)
    lengths = lengths or [50.0 + 3.0 * k for k in range(n)]
    lags = lags or [0.1 + 0.01 * k for k in range(n)]
    return [
        make_step(k, side, length, t, t + lag)
        for k, (side, t, length, lag) in enumerate(zip(sides, t_front, lengths, lags))
    ]


@st.composite
def alternating_steps(draw, min_gap):
    """2-40 steps of alternating front sides; consecutive front events
    `min_gap` to 1 s apart (a negative gap puts a step before the last)."""
    n = draw(st.integers(2, 40))
    sides = draw(st.sampled_from(["LR", "RL"]))
    gaps = draw(st.lists(st.floats(min_gap, 1.0), min_size=n, max_size=n))
    lengths = draw(st.lists(st.floats(-10.0, 90.0), min_size=n, max_size=n))
    lags = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    return steps_at([sides[k % 2] for k in range(n)], np.cumsum(gaps).tolist(), lengths, lags)


@pytest.fixture(scope="module")
def walk_steps():
    walk = synth.make_walks(5151, 1, 20.0)[0]
    return analyze(walk.legs, walk.params).steps


def paired(steps):
    """Every batch of `steps` through one `StridePairer`, then its finish."""
    pairer = StridePairer()
    strides = []
    for batch in steps:
        strides += pairer.add(batch)
    return strides + pairer.finish()


class TestStridePairer:
    """One stride rule: `stride_metrics` is the index loop over one run, and
    the pairer gives its strides whatever batches the steps come in, run by
    run where a front side repeats."""

    @settings(max_examples=300, deadline=None)
    @given(steps=alternating_steps(min_gap=-0.3))
    def test_stride_metrics_is_the_index_loop(self, steps):
        assert outcome(stride_metrics, steps) == outcome(oracle_strides, steps)

    def test_non_positive_window_time_raises_as_the_loop_does(self):
        # Strides 0 and 1 take 1 s each; step 6 comes 7 s before step 4.
        steps = steps_at("LRLRLRLR", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, -5.0, -4.5])
        want = outcome(oracle_strides, steps)
        assert "stride 2: non-positive window time" in want
        assert outcome(stride_metrics, steps) == want
        assert outcome(lambda s: paired([s]), steps) == want

    @settings(max_examples=200, deadline=None)
    @given(steps=alternating_steps(min_gap=0.05))
    def test_live_session_windows_give_the_loops_strides(self, steps):
        """The benchmark's `LiveSession` takes stride i as the last stride of
        the window steps[2 max(0, i-4) : 2i+3], renumbered."""
        for i, want in enumerate(oracle_strides(steps)):
            window = stride_metrics(steps[2 * max(0, i - 4) : 2 * i + 3])
            assert repr(dataclasses.replace(window[-1], index=i)) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_batching_gives_stride_metrics(self, walk_steps, data):
        n = len(walk_steps)
        cuts = data.draw(st.lists(st.integers(0, n), max_size=30).map(sorted))
        edges = [0, *cuts, n]
        batches = [walk_steps[a:b] for a, b in zip(edges, edges[1:])]
        assert repr(paired(batches)) == repr(stride_metrics(walk_steps))

    @pytest.mark.parametrize(
        "sides, pairs",
        [
            pytest.param("LLRLR", [(1, 2), (3, 4)], id="repeat_at_start"),
            pytest.param("LRLRRLRL", [(0, 1), (2, 3), (4, 5), (6, 7)], id="repeat_in_middle"),
            pytest.param("LRLRR", [(0, 1), (2, 3)], id="repeat_at_end"),
            pytest.param("LRRRL", [(0, 1), (3, 4)], id="lone_step_between_repeats"),
        ],
    )
    def test_a_repeated_front_side_starts_a_new_run(self, sides, pairs):
        """Each run gives the index loop's strides, the last timed by its half
        cycle and each velocity window inside the run; a lone step pairs with
        nothing, and stride indices run on."""
        steps = steps_at(sides, [0.5 * k + 0.02 * k * k for k in range(len(sides))])
        with pytest.raises(SegmentationError, match="both have front side"):
            stride_metrics(steps)
        runs, run = [], []
        for s in steps:
            if run and run[-1].front_side == s.front_side:
                runs.append(run)
                run = []
            run.append(s)
        want = []
        for run in runs + [run]:
            want += [dataclasses.replace(s, index=len(want) + k)
                     for k, s in enumerate(oracle_strides(run))]
        got = paired([steps])
        assert [(s.index, s.step_a.index, s.step_b.index) for s in got] == [
            (k, a, b) for k, (a, b) in enumerate(pairs)
        ]
        assert repr(got) == repr(want)
        assert repr(paired([[s] for s in steps])) == repr(want)


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
