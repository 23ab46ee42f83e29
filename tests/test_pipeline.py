"""gaitlab.pipeline gives the bits and the calls of the benchmark's compositions.

`analyze` is checked against `gaitbench.workloads.batch_chain` and
`StreamingAnalyzer` against `gaitbench.workloads.LiveSession`, emit times
included, on short synthetic walks of two seeds, fed in chunks of 10, 40,
130 and 1000 ms, once with the C kernel and once on the Python loops. The
outputs are compared by the sha256 of their pickles, and the calls by the
span names, in order, and the counts that a `gaitbench.tracing.Tracer`
records. After `finish`, the analyzer refuses more input and leaves its
state as it was.
"""

import hashlib
import pickle

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
