"""gaitlab.pipeline gives the bits and the calls of the benchmark's compositions.

`analyze` is checked against `gaitbench.workloads.batch_chain` and
`StreamingAnalyzer` against `gaitbench.workloads.LiveSession`, emit times
included, on short synthetic walks of two seeds, fed in chunks of 10, 40,
130 and 1000 ms, once with the C kernel and once on the Python loops. The
outputs are compared by the sha256 of their pickles, and the calls by the
span names, in order, and the counts that a `gaitbench.tracing.Tracer`
records.
"""

import hashlib
import pickle

import pytest

from gaitbench import synth
from gaitbench import workloads as W
from gaitbench.tracing import Tracer
from gaitlab.pipeline import StreamingAnalyzer, analyze

SEEDS = (2929, 8383)
CHUNK_MS = (10, 40, 130, 1000)
WALK_S = 10.0


@pytest.fixture(scope="module", params=SEEDS)
def walk(request):
    return synth.make_walks(request.param, 1, WALK_S)[0]


@pytest.fixture(params=["kernel", "python_loops"])
def loops(request):
    """Runs the test once on the C kernel (skipped where it cannot be built)
    and once on the Python loops."""
    if request.param == "kernel":
        request.getfixturevalue("compiled_kernel")
    else:
        request.getfixturevalue("python_loops")()


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
