"""gaitlab.pipeline gives the bits and the calls of the benchmark's compositions.

`analyze` is checked against `gaitbench.workloads.batch_chain` and
`StreamingAnalyzer` against `gaitbench.workloads.LiveSession`, emit times
included, on short synthetic walks of two seeds, fed in chunks of 10, 40,
130 and 1000 ms, once with the C kernel and once on the Python loops. The
outputs are compared by the sha256 of their pickles, and the calls by the
span names, in order, and the counts that a `gaitbench.tracing.Tracer`
records. After `finish`, the analyzer refuses more input and leaves its
state as it was. An inf and NaN rows in the raw IMU streams go through
both compositions without a warning. Fed a ten-minute walk, the analyzer
holds fewer than one 25 Hz window of raw samples per series.
"""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from gaitbench import synth
from gaitbench import workloads as W
from gaitbench.tracing import Tracer
from gaitlab.errors import GaitInputError
from gaitlab.pipeline import StreamingAnalyzer, analyze
from gaitlab.signal import BendStream, ImuStream

SEEDS = (2929, 8383)
CHUNK_MS = (10, 40, 130, 1000)
WALK_S = 10.0


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


def test_analyze_equals_batch_chain(walk, loops):
    want, want_spans, want_counts = traced(lambda tr: W.batch_chain(walk, tr))
    got, spans, counts = traced(lambda tr: analyze(walk.legs, walk.params, tr))
    assert len(got.steps) >= 10
    assert digest(got.steps, got.strides, got.asymmetry, got.diagnostics, got.quad) == digest(
        want.steps, want.strides, want.asymmetry, want.diagnostics, want.quad
    )
    assert spans == want_spans
    assert counts == want_counts


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

    (s, want), want_spans, want_counts = traced(session)
    (a, got), spans, counts = traced(analyzer)
    assert len(got.steps) >= 10
    assert digest(
        got.steps, got.strides, got.asymmetry, got.diagnostics, emitted_at=a.emitted_at
    ) == digest(want.steps, want.strides, want.asymmetry, want.diagnostics, emitted_at=s.emitted_at)
    assert spans == want_spans
    assert counts == want_counts
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


def finished_analyzer(walk):
    chunks = W.make_chunks(walk, 40)
    a = StreamingAnalyzer(walk.legs, walk.params)
    for chunk in chunks:
        a.feed(chunk.legs, chunk.end_t)
    return a, a.finish(chunks[-1].end_t), chunks[-1]


def state(a):
    """The pickled buffers, filter states, detectors, pending events and outputs."""
    return pickle.dumps((
        a.legs, a.series, a._heap, a.steps, a.emitted_at, a.strides, a.asymmetry, a.diagnostics
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
