"""gaitlab.pipeline gives the benchmark's bits, whole and in any chunks.

`analyze` is `StreamingAnalyzer` fed each leg's whole streams and finished.
It is checked against `gaitbench.workloads.batch_chain`, the benchmark's
stage-by-stage composition, with the 25 Hz series of `Analysis.quad`; the
analyzer fed in chunks of 10, 40, 130 and 1000 ms against
`gaitbench.workloads.LiveSession`, emit times included, on short synthetic
walks of two seeds, once with the C kernel and once on the Python loops.
The outputs are compared by the sha256 of their pickles, and the sample
counts that a `gaitbench.tracing.Tracer` records too. The calls of a whole
recording are stated by name and count, each name a `<module>.<call>` of
gaitlab. Fed any chunking of the four streams, empty pieces and either leg
first included, the analyzer gives `analyze`'s result; a release hands
simultaneous minima to the segmenter in `MinimumEvent.sort_key` order. A
recording with fewer than two steps gives those steps and no stride, the
ones `segment_steps` finds in the quad. On a short-step walk that loses a
step, the strides run on from the next step, whole and in chunks alike.
An empty walking stream, legs other than L and R, or a chunk for an
unknown leg is a `GaitInputError`. After `finish`, the analyzer refuses
more input and leaves its state as it was. An inf and NaN
rows in the raw IMU streams go through both compositions without a warning.
Fed a ten-minute walk, the analyzer holds fewer than one 25 Hz window of
raw samples per series.
"""

import dataclasses
import hashlib
import importlib
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbench import synth
from gaitbench import workloads as W
from gaitbench.tracing import Tracer
from gaitlab._kernel import SEGMENT_SERIES
from gaitlab.core import stride_metrics
from gaitlab.errors import GaitInputError, SegmentationError
from gaitlab.events import MinimumEvent, attach_lengths, segment_steps
from gaitlab.pipeline import StreamingAnalyzer, analyze
from gaitlab.signal import BendStream, ImuStream

SEEDS = (2929, 8383)
CHUNK_MS = (10, 40, 130, 1000)
WALK_S = 10.0

# Each call a whole recording makes, and how often: per leg, per stream fed
# to the filter, per 25 Hz series (the detector's derivatives twice: the
# feed's and the end's), or once.
WHOLE_RECORDING_CALLS = {
    "signal.compute_offsets": 2,
    "orientation.filter_init": 2,
    "signal.apply_offsets": 2,
    "orientation.remap_mounting": 4,
    "orientation.madgwick_batch": 2,
    "signal.smoothed_block": 4,
    "events.MinimaDetector.extend_series": 4,
    "events.DerivativeStream.feed": 4,
    "events.MinimaDetector.feed_derivative": 8,
    "events.DerivativeStream.finalize": 4,
    "events.StepSegmenter.finalize": 1,
    "core.StridePairer.finish": 1,
    "events.AngleQuad": 1,
}
# At most one each per release, the feed's and the finish's: one segmenter
# run over the released events, one `attach_lengths` over the steps they
# complete and one `StridePairer.add` of those steps.
RELEASE_CALLS = ("events.StepSegmenter.run", "events.attach_lengths", "core.StridePairer.add")


@pytest.fixture(scope="module", params=SEEDS)
def walk(request):
    return synth.make_walks(request.param, 1, WALK_S)[0]


def digest(steps, strides, asymmetry, diagnostics, quad=None, emitted_at=None):
    """sha256 of the pickled outputs: equal only if every float has the same bits."""
    series = None
    if quad is not None:
        series = [
            (quad.series(name).values.tobytes(), quad.series(name).t0.hex())
            for name in ("hip_L", "knee_L", "hip_R", "knee_R")
        ]
    outputs = (steps, strides, asymmetry, diagnostics, series, emitted_at)
    return hashlib.sha256(pickle.dumps(outputs)).hexdigest()


def traced(run):
    """run(tracer)'s result, the names of the spans it recorded in order, and its counts."""
    tr = Tracer("test")
    out = run(tr)
    return out, [s.name for s in tr.spans], dict(tr.counts)


def resolve(name):
    """The gaitlab object that a call name `<module>.<call>` names."""
    module, call = name.split(".", 1)
    obj = importlib.import_module(f"gaitlab.{module}")
    for part in call.split("."):
        obj = getattr(obj, part)
    return obj


def test_analyze_equals_batch_chain(walk, loops):
    want, _, want_counts = traced(lambda tr: W.batch_chain(walk, tr))
    got, spans, counts = traced(lambda tr: analyze(walk.legs, walk.params, tr))
    assert len(got.steps) >= 10
    assert digest(got.steps, got.strides, got.asymmetry, got.diagnostics, got.quad) == digest(
        want.steps, want.strides, want.asymmetry, want.diagnostics, want.quad
    )
    assert counts == want_counts
    calls = Counter(spans)
    assert all(callable(resolve(name)) for name in calls)
    released = {name: calls.pop(name, 0) for name in RELEASE_CALLS}
    assert all(1 <= n <= 2 for n in released.values()), released
    assert calls.pop("core.gait_asymmetry") == len(got.strides)
    assert calls == WHOLE_RECORDING_CALLS


@pytest.mark.parametrize("chunk_ms", CHUNK_MS)
def test_streaming_analyzer_equals_live_session(walk, loops, chunk_ms):
    chunks = W.make_chunks(walk, chunk_ms)

    def session(tr):
        s = W.LiveSession(walk, tr)
        for chunk in chunks:
            s.feed(chunk)
        s.finish(chunks[-1].end_t)
        return s, s.result()

    def analyzer(tr):
        a = StreamingAnalyzer(walk.legs, walk.params, tr)
        for chunk in chunks:
            assert a.feed(chunk.legs, chunk.end_t) is None
        return a, a.finish(chunks[-1].end_t)

    (s, want), _, want_counts = traced(session)
    (a, got), spans, counts = traced(analyzer)
    assert len(got.steps) >= 10
    assert digest(
        got.steps, got.strides, got.asymmetry, got.diagnostics, emitted_at=a.emitted_at
    ) == digest(want.steps, want.strides, want.asymmetry, want.diagnostics, emitted_at=s.emitted_at)
    assert counts == want_counts
    calls = Counter(spans)
    assert all(calls[name] <= len(chunks) + 1 for name in RELEASE_CALLS)
    assert got == analyze(walk.legs, walk.params)


def test_raw_buffers_stay_bounded_on_a_long_walk():
    """Ten minutes in 40 ms chunks: after every chunk each series holds fewer
    raw samples than one 25 Hz window (2M), and the result is still the
    batch chain's."""
    walk = synth.make_walks(4242, 1, 600.0)[0]
    chunks = W.make_chunks(walk, 40)
    a = StreamingAnalyzer(walk.legs, walk.params)
    for chunk in chunks:
        a.feed(chunk.legs, chunk.end_t)
        assert all(len(s.raw) < 2 * s.m for s in a.series.values())
    assert a.finish(chunks[-1].end_t) == analyze(walk.legs, walk.params)


def fed(walk, chunk_legs):
    """The analyzer's result, fed `chunk_legs` in order."""
    a = StreamingAnalyzer(walk.legs, walk.params)
    for k, legs in enumerate(chunk_legs):
        a.feed(legs, 0.04 * (k + 1))
    return a.finish(0.04 * (len(chunk_legs) + 1))


def segmented(got, params):
    """The steps and diagnostics that the batch `segment_steps` gives for the
    quad of `analyze`'s result, with their lengths."""
    diagnostics = []
    steps = attach_lengths(segment_steps(got.quad, None, diagnostics), params)
    return steps, diagnostics


@pytest.mark.parametrize("seconds, n_steps", [(0.6, 0), (1.0, 1)])
def test_fewer_than_two_steps_give_no_stride(seconds, n_steps):
    """Whole and in 40 ms chunks: the steps that `segment_steps` finds in the
    quad, with their lengths, and no stride or asymmetry."""
    walk = synth.make_walks(101, 1, seconds)[0]
    got = analyze(walk.legs, walk.params)
    assert (got.steps, got.diagnostics) == segmented(got, walk.params)
    assert len(got.steps) == n_steps
    assert got.strides == [] and got.asymmetry == []
    assert fed(walk, [chunk.legs for chunk in W.make_chunks(walk, 40)]) == got


@pytest.fixture(scope="module")
def walk_12s():
    walk = synth.make_walks(3131, 1, 12.0)[0]
    return walk, analyze(walk.legs, walk.params)


def pieces(stream, cuts):
    """`stream` cut at the sorted sample indices `cuts`; equal cuts give empty pieces."""
    edges = [0, *cuts, len(stream)]
    if isinstance(stream, ImuStream):
        return [ImuStream(stream.t[a:b], stream.accel[a:b], stream.gyro[a:b])
                for a, b in zip(edges, edges[1:])]
    return [BendStream(stream.t[a:b], stream.angle_deg[a:b]) for a, b in zip(edges, edges[1:])]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_chunks=st.integers(1, 12), right_first=st.booleans())
def test_any_chunking_gives_analyze(walk_12s, data, n_chunks, right_first):
    """Each of the four streams cut at its own points, empty pieces allowed,
    with either leg first in each chunk: the analyzer finishes with
    `analyze`'s result."""
    walk, want = walk_12s
    cut = {}
    for side, leg in walk.legs.items():
        for stream in (leg.imu, leg.bend):
            cuts = st.lists(st.integers(0, len(stream)), min_size=n_chunks - 1,
                            max_size=n_chunks - 1).map(sorted)
            cut[side, type(stream)] = pieces(stream, data.draw(cuts))
    sides = ("R", "L") if right_first else ("L", "R")
    chunk_legs = [
        {side: (cut[side, ImuStream][k], cut[side, BendStream][k]) for side in sides}
        for k in range(n_chunks)
    ]
    assert fed(walk, chunk_legs) == want


class HeldRuns:
    """A probe that keeps the events of each segmenter run and segments none."""

    def __init__(self):
        self.runs = []

    def call(self, name, fn, *args):
        if name == "events.StepSegmenter.run":
            self.runs.append(list(args[0]))
            return []
        return fn(*args)

    def count(self, name, n=1):
        pass


def test_a_release_takes_simultaneous_minima_in_sort_key_order(walk):
    """Minima of all four series at 1.0 s and at 2.0 s, pending in each
    series: a release up to 1.5 s hands the segmenter the four at 1.0 s in
    one run, left before right and hip before knee, and keeps the rest."""
    probe = HeldRuns()
    a = StreamingAnalyzer(walk.legs, walk.params, probe)
    for name, s in a.series.items():
        s.pending = [MinimumEvent(name, j, t, 0.0) for j, t in enumerate((1.0, 2.0))]
    a._release(1.5, 0.0)
    assert probe.runs == [[MinimumEvent(name, 0, 1.0, 0.0) for name in SEGMENT_SERIES]]
    assert probe.runs == [sorted(probe.runs[0], key=MinimumEvent.sort_key)]
    assert all(s.pending == [MinimumEvent(name, 1, 2.0, 0.0)] for name, s in a.series.items())


def scaled_walks(seed, count, seconds, scale, n):
    """The first n of `synth.make_walks(seed, count, seconds)`'s walks, from
    the same draws, with each leg's hip_min, hip_amp and knee_amp scaled:
    the short steps of Parkinsonian gait."""
    rng = np.random.default_rng(seed)
    lo, hi = synth.CADENCE_RANGE_SPM
    cadences = lo + (np.arange(count) + rng.uniform(0.0, 1.0, count)) * (hi - lo) / count
    pattern = synth.LegPattern

    def scaled(**kw):
        p = pattern(**kw)
        return dataclasses.replace(
            p, hip_min=p.hip_min * scale, hip_amp=p.hip_amp * scale, knee_amp=p.knee_amp * scale
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "LegPattern", scaled)
        return [synth.make_walk(rng, seconds, float(c)) for c in cadences[:n]]


@pytest.fixture(scope="module")
def lost_step_walk():
    """Seed 101's walk 1 of twelve 60 s walks (94.1 steps/min) at a quarter
    of the excursions: the segmenter loses the step after step 18."""
    walk = scaled_walks(101, 12, 60.0, 0.25, 2)[1]
    return walk, analyze(walk.legs, walk.params)


def test_a_lost_step_costs_one_stride(lost_step_walk):
    """Steps 18 and 19 both lead with L, so `stride_metrics` refuses the
    list; the analyzer leaves step 18 unpaired and starts a new run of
    strides at step 19, after the segmenter's line for the lost step."""
    walk, got = lost_step_walk
    assert round(walk.cadence_spm, 1) == 94.1
    assert (len(got.steps), len(got.strides)) == (78, 38)
    with pytest.raises(SegmentationError, match="steps 18 and 19 both have front side L"):
        stride_metrics(got.steps)
    s18, s19 = got.steps[18:20]
    assert (round(s18.t_front_event, 3), round(s19.t_front_event, 3)) == (14.27, 16.75)
    assert "discarded front event (L at 15.510 s): front side did not alternate" in got.diagnostics
    runs = stride_metrics(got.steps[:19]), stride_metrics(got.steps[19:])
    want = [*runs[0], *(dataclasses.replace(s, index=s.index + len(runs[0])) for s in runs[1])]
    assert repr(got.strides) == repr(want)


@pytest.mark.parametrize("chunk_ms", CHUNK_MS)
def test_a_lost_step_in_chunks_gives_analyze(lost_step_walk, chunk_ms):
    walk, want = lost_step_walk
    chunks = W.make_chunks(walk, chunk_ms)
    a = StreamingAnalyzer(walk.legs, walk.params)
    for chunk in chunks:
        a.feed(chunk.legs, chunk.end_t)
    assert a.finish(chunks[-1].end_t) == want


@pytest.fixture(scope="module")
def walk_5s():
    return synth.make_walks(101, 1, 5.0)[0]


@pytest.mark.parametrize("stream", ["imu", "bend"])
def test_an_empty_walking_stream_is_a_gait_input_error(walk_5s, stream):
    leg = walk_5s.legs["R"]
    empty = pieces(getattr(leg, stream), [0])[0]
    legs = {**walk_5s.legs, "R": dataclasses.replace(leg, **{stream: empty})}
    with pytest.raises(GaitInputError, match=f"leg R: walking {stream} stream holds no sample"):
        StreamingAnalyzer(legs, walk_5s.params)
    with pytest.raises(GaitInputError, match=f"leg R: walking {stream}"):
        analyze(legs, walk_5s.params)


@pytest.mark.parametrize("sides", [("L",), ("L", "R", "X")])
def test_legs_other_than_left_and_right_are_a_gait_input_error(walk_5s, sides):
    """A missing side used to raise KeyError; an extra one was filtered and
    its minima kept, never segmented."""
    legs = {side: walk_5s.legs[side if side != "X" else "R"] for side in sides}
    with pytest.raises(GaitInputError, match="legs must map sides L and R only"):
        StreamingAnalyzer(legs, walk_5s.params)


def test_a_chunk_for_an_unknown_leg_is_refused_before_any_leg_is_fed(walk_5s):
    a = StreamingAnalyzer(walk_5s.legs, walk_5s.params)
    chunk = W.make_chunks(walk_5s, 40)[0]
    before = state(a)
    with pytest.raises(GaitInputError, match=r"StreamingAnalyzer.feed: no leg \{'X'\}"):
        a.feed({**chunk.legs, "X": chunk.legs["R"]}, chunk.end_t)
    assert state(a) == before


def finished_analyzer(walk):
    chunks = W.make_chunks(walk, 40)
    a = StreamingAnalyzer(walk.legs, walk.params)
    for chunk in chunks:
        a.feed(chunk.legs, chunk.end_t)
    return a, a.finish(chunks[-1].end_t), chunks[-1]


def state(a):
    """The pickled buffers, filter states, detectors, pending events and outputs."""
    return pickle.dumps((
        a.legs, a.series, a.steps, a.emitted_at, a.strides, a.asymmetry, a.diagnostics
    ))


@pytest.mark.parametrize("rows", ["chunk", "one_row"])
def test_feed_after_finish_raises_and_changes_nothing(walk, rows):
    """A whole 40 ms chunk completes a 25 Hz sample; one IMU and one bend
    row complete none, and were taken silently before."""
    a, _, last = finished_analyzer(walk)
    chunk_legs = last.legs
    if rows == "one_row":
        chunk_legs = {
            side: (
                ImuStream(imu.t[:1], imu.accel[:1], imu.gyro[:1]),
                BendStream(bend.t[:1], bend.angle_deg[:1]),
            )
            for side, (imu, bend) in last.legs.items()
        }
    before = state(a)
    with pytest.raises(GaitInputError, match="StreamingAnalyzer.feed"):
        a.feed(chunk_legs, last.end_t + 0.04)
    assert state(a) == before


def test_second_finish_raises_and_changes_nothing(walk):
    a, result, last = finished_analyzer(walk)
    before = state(a)
    with pytest.raises(GaitInputError, match="StreamingAnalyzer.finish"):
        a.finish(last.end_t)
    assert state(a) == before
    assert result == analyze(walk.legs, walk.params)


def with_fault_rows(walk):
    """The walk with an inf in one accel row of the left leg and a NaN in
    one gyro row of each leg, well inside the walking streams."""
    legs = {}
    for side, leg in walk.legs.items():
        accel, gyro = leg.imu.accel.copy(), leg.imu.gyro.copy()
        if side == "L":
            accel[1000, 0] = np.inf
        gyro[1500 if side == "L" else 1700, 1] = np.nan
        legs[side] = dataclasses.replace(leg, imu=ImuStream(leg.imu.t, accel, gyro))
    return dataclasses.replace(walk, legs=legs)


def test_fault_rows_go_through_the_whole_chain(walk, loops):
    """An inf accel row and NaN gyro rows pass offsets, remap and filter with
    no RuntimeWarning (an error in this suite), in batch and in 40 ms chunks
    alike, and the filter holds them: the same steps as the clean walk, each
    with a finite length."""
    faulty = with_fault_rows(walk)
    got = analyze(faulty.legs, faulty.params)
    clean = analyze(walk.legs, walk.params)
    assert len(got.steps) == len(clean.steps) >= 10
    assert all(math.isfinite(s.length_cm) for s in got.steps)
    assert [(s.front_side, s.t_front_event, s.t_back_event) for s in got.steps] == [
        (s.front_side, s.t_front_event, s.t_back_event) for s in clean.steps
    ]
    chunks = W.make_chunks(faulty, 40)
    a = StreamingAnalyzer(faulty.legs, faulty.params)
    for chunk in chunks:
        a.feed(chunk.legs, chunk.end_t)
    assert a.finish(chunks[-1].end_t) == got
