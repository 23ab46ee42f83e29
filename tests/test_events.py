import dataclasses
import math
import tracemalloc
from array import array
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitlab import _kernel
from gaitlab._kernel import SEGMENT_SERIES, _minima_loop, _segment_loop
from gaitlab.errors import GaitInputError
from gaitlab.events import (
    AngleQuad,
    DerivativeStream,
    EventConfig,
    MinimaDetector,
    MinimumEvent,
    StepSegmenter,
    _DIAGNOSTICS,
    _SEGMENTER_START,
    _SMALL_FEED,
    detect_minima,
    five_point_derivative,
    segment_steps,
)
from gaitlab.signal import UniformSeries

RATE = 25.0


def series(values, t0=0.0, rate=RATE):
    return UniformSeries(t0=t0, rate_hz=rate, values=np.asarray(values, dtype=float))


class TestFivePointDerivative:
    def test_constant_is_zero(self):
        d = five_point_derivative(series(np.full(50, 3.3)))
        assert np.allclose(d.values, 0.0)

    def test_linear_slope_recovered(self):
        k = np.arange(50)
        d = five_point_derivative(series(2.0 * k / RATE))
        assert np.allclose(d.values, 2.0, atol=1e-9)

    def test_exact_for_cubics(self):
        t = np.arange(30) / RATE
        s = 0.3 * t**3 - 2.0 * t**2 + 5.0 * t - 1.0
        want = 0.9 * t**2 - 4.0 * t + 5.0
        d = five_point_derivative(series(s))
        assert np.allclose(d.values[2:-2], want[2:-2], atol=1e-9)

    def test_sinusoid_error_bound(self):
        t = np.arange(0, 4, 1 / RATE)
        d = five_point_derivative(series(np.sin(2 * np.pi * t)))
        want = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.abs(d.values[2:-2] - want[2:-2]).max() < 1e-3

    def test_length_and_grid_preserved(self):
        s = series(np.random.default_rng(0).normal(size=40), t0=1.5)
        d = five_point_derivative(s)
        assert len(d) == len(s)
        assert d.t0 == s.t0 and d.rate_hz == s.rate_hz

    def test_too_short_rejected(self):
        with pytest.raises(GaitInputError):
            five_point_derivative(series([1.0, 2.0, 3.0, 4.0]))

    def test_streaming_matches_batch_any_chunking(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=101)
        batch = five_point_derivative(series(s)).values
        for chunk in (1, 3, 7, _SMALL_FEED - 1, _SMALL_FEED, _SMALL_FEED + 1, 50):
            stream = DerivativeStream(RATE)
            got = list(stream.feed(s[:0]))
            for lo in range(0, len(s), chunk):
                got.extend(stream.feed(s[lo : lo + chunk]))
                got.extend(stream.feed(s[:0]))
            got.extend(stream.finalize())
            assert np.array_equal(np.asarray(got), batch), f"chunk={chunk}"

    @pytest.mark.parametrize("shape", [(5, 2), (5, 1), (1, 5), ()], ids=["5x2", "5x1", "1x5", "scalar"])
    def test_multichannel_samples_rejected(self, shape):
        # A series is one channel; a 2-D chunk used to fail with a bare
        # TypeError from the stencil's list arithmetic.
        stream = DerivativeStream(RATE)
        stream.feed(np.arange(3.0))
        with pytest.raises(GaitInputError, match="one channel"):
            stream.feed(np.zeros(shape))
        assert stream.n == 3 and stream.tail == [0.0, 1.0, 2.0]

    def test_feed_after_finalize_rejected(self):
        stream = DerivativeStream(RATE)
        stream.feed(np.arange(10.0))
        stream.finalize()
        with pytest.raises(GaitInputError):
            stream.feed(np.arange(10.0, 15.0))

    def test_stream_memory_stays_bounded(self):
        # One hour of one 25 Hz series in 40-sample chunks: the stream keeps
        # its last few samples, not the series.
        s = np.random.default_rng(6).normal(size=90_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = DerivativeStream(RATE)
            for lo in range(0, len(s), 40):
                stream.feed(s[lo : lo + 40])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 4096, f"{held} bytes held after {len(s)} samples"


@st.composite
def chunked_series(draw, min_size, max_size):
    """A float series and a split of it into consecutive, possibly empty chunks."""
    values = draw(
        st.lists(st.floats(-1e6, 1e6), min_size=min_size, max_size=max_size)
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=12)))
    bounds = [0, *cuts, len(values)]
    return values, [values[a:b] for a, b in zip(bounds, bounds[1:])]


def feed_chunks(stream, chunks):
    return [d for chunk in chunks for d in stream.feed(chunk)]


# Derandomized and without an example database, so tier-1 runs the same
# examples on every run and machine.
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def small_feed_examples(test):
    """Adds, as explicit examples, feeds of 1 to 13 samples after a first
    feed of 0 to 4: both branches of `DerivativeStream.feed` (below and
    from `_SMALL_FEED` derivatives), from each tail length the stream holds."""
    values = np.random.default_rng(8).normal(0.0, 10.0, 40).tolist()
    for head in range(5):
        for size in range(1, 14):
            cuts = [0, *range(head, len(values), size), len(values)]
            test = example((values, [values[a:b] for a, b in zip(cuts, cuts[1:])]))(test)
    return test


class TestDerivativeStreamProperties:
    @PROPERTY
    @given(chunked_series(5, 300))
    @small_feed_examples
    def test_streaming_equals_batch_bit_for_bit(self, case):
        values, chunks = case
        stream = DerivativeStream(RATE)
        got = feed_chunks(stream, chunks) + list(stream.finalize())
        want = five_point_derivative(series(values)).values
        assert np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()

    @PROPERTY
    @given(chunked_series(0, 4))
    def test_short_series_rejected_at_finalize(self, case):
        _, chunks = case
        stream = DerivativeStream(RATE)
        feed_chunks(stream, chunks)
        with pytest.raises(GaitInputError):
            stream.finalize()


class TestDetectMinima:
    def test_strictly_increasing_none(self):
        assert detect_minima(series(np.arange(50.0))) == []

    def test_sinusoid_one_per_period(self):
        t = np.arange(0, 5, 1 / RATE)
        s = 20.0 * np.sin(2 * np.pi * 1.0 * t)
        events = detect_minima(series(s), config=EventConfig(refractory_s=0.3))
        # Troughs at t = 0.75 + k; the last (4.75) has little rise after it
        # but 0.25 s of rising samples is enough to confirm.
        troughs = [0.75 + k for k in range(5)]
        assert len(events) == len(troughs)
        for ev, want in zip(events, troughs):
            assert abs(ev.t - want) <= 1.0 / RATE + 1e-9

    def test_noisy_sinusoid_debounced(self):
        rng = np.random.default_rng(2)
        t = np.arange(0, 10, 1 / RATE)
        s = 20.0 * np.sin(2 * np.pi * t) + rng.normal(0, 0.2, len(t))
        events = detect_minima(series(s), config=EventConfig(refractory_s=0.3, prominence_deg=1.0))
        assert len(events) == 10

    def test_flat_then_rise_not_an_event(self):
        # A standing plateau followed by a rise has no prominence below the
        # plateau level and must not fire.
        s = np.concatenate([np.zeros(50), np.linspace(0, 40, 50)])
        assert detect_minima(series(s)) == []

    def test_event_value_is_series_sample(self):
        t = np.arange(0, 3, 1 / RATE)
        s = 20.0 * np.sin(2 * np.pi * t)
        for ev in detect_minima(series(s)):
            assert ev.value == s[ev.index]

    def test_refractory_suppresses_double_fire(self):
        # Two dips 0.2 s apart: with a 0.3 s refractory only one survives.
        t = np.arange(0, 2, 1 / RATE)
        s = 10.0 * np.cos(2 * np.pi * 5.0 * t)  # troughs every 0.2 s
        events = detect_minima(series(s), config=EventConfig(refractory_s=0.3, prominence_deg=1.0))
        spacing = np.diff([ev.t for ev in events])
        assert np.all(spacing >= 0.3 - 1e-9)

    def test_rate_doubling_keeps_timestamps(self):
        # The same analog signal sampled twice as fast: events move by less
        # than one original sample period.
        f = lambda t: 20.0 * np.sin(2 * np.pi * t) + 5.0 * np.sin(2 * np.pi * 0.3 * t)
        t1 = np.arange(0, 8, 1 / RATE)
        t2 = np.arange(0, 8, 1 / (2 * RATE))
        ev1 = detect_minima(series(f(t1)))
        ev2 = detect_minima(series(f(t2), rate=2 * RATE))
        assert len(ev1) == len(ev2)
        for a, b in zip(ev1, ev2):
            assert abs(a.t - b.t) < 1.0 / RATE

    @pytest.mark.parametrize("shape", [(5, 2), (5, 1), (1, 5), ()], ids=["5x2", "5x1", "1x5", "scalar"])
    def test_multichannel_values_rejected(self, shape):
        # A series is one channel; a 2-D input used to be appended
        # flattened, C values per row, and a scalar as one sample.
        det = MinimaDetector("knee_L", 0.0, RATE, EventConfig())
        det.extend_series(np.arange(3.0))
        with pytest.raises(GaitInputError, match="knee_L: a series is one channel"):
            det.extend_series(np.zeros(shape))
        assert det.values.tolist() == [0.0, 1.0, 2.0]

    def test_multichannel_series_rejected(self):
        # Used to fail with a bare TypeError.
        with pytest.raises(GaitInputError, match="one channel"):
            detect_minima(UniformSeries(0.0, RATE, np.zeros((40, 2))))

    def test_streaming_matches_batch_any_chunking(self):
        rng = np.random.default_rng(3)
        t = np.arange(0, 12, 1 / RATE)
        s = 20.0 * np.sin(2 * np.pi * t) + rng.normal(0, 0.5, len(t))
        batch = detect_minima(series(s))
        for chunk in (1, 5, _SMALL_FEED - 1, _SMALL_FEED, _SMALL_FEED + 1, 17, 200):
            det = MinimaDetector("series", 0.0, RATE, EventConfig())
            stream = DerivativeStream(RATE)
            got = []
            for lo in range(0, len(s), chunk):
                for block in (s[lo : lo + chunk], s[:0]):
                    det.extend_series(block)
                    got.extend(det.feed_derivative(stream.feed(block)))
            got.extend(det.feed_derivative(stream.finalize()))
            got.extend(det.finalize())
            assert got == batch, f"chunk={chunk}"

    def test_state_after_each_derivative_matches_one_call(self):
        rng = np.random.default_rng(4)
        t = np.arange(0, 8, 1 / RATE)
        s = 20.0 * np.sin(2 * np.pi * t) + rng.normal(0, 0.5, len(t))
        d = five_point_derivative(series(s)).values

        def state(det):
            return (det.pending, det.run_max, det.last_accept_t, det.frontier_t)

        det = MinimaDetector("series", 0.0, RATE, EventConfig())
        det.extend_series(s)
        seen = set()
        for m in range(1, len(d) + 1):
            det.feed_derivative(d[m - 1 : m])
            whole = MinimaDetector("series", 0.0, RATE, EventConfig())
            whole.extend_series(s)
            whole.feed_derivative(d[:m])
            assert state(det) == state(whole), f"after {m} derivatives"
            seen.add((det.pending == -1, det.last_accept_t == -math.inf))
        # Both a pending trough and a confirmed event were passed through.
        assert (False, False) in seen and (True, False) in seen

    def test_outrun_leaves_the_state_of_the_derivatives_before_it(self):
        s = 20.0 * np.sin(2 * np.pi * np.arange(0, 3, 1 / RATE))
        d = five_point_derivative(series(s)).values
        det = MinimaDetector("series", 0.0, RATE, EventConfig())
        det.extend_series(s[:40])
        with pytest.raises(GaitInputError):
            det.feed_derivative(d)
        whole = MinimaDetector("series", 0.0, RATE, EventConfig())
        whole.extend_series(s[:40])
        whole.feed_derivative(d[:40])
        assert det._i == 41 and det._d_prev == d[40]
        assert (det.pending, det.run_max, det.last_accept_t) == (
            whole.pending, whole.run_max, whole.last_accept_t
        )


class TestSettings:
    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in ("refractory_s", "prominence_deg", "back_event_timeout_s")
            for value in (math.nan, -1.0)
        ]
        + [("back_event_timeout_s", 0.0)],
    )
    def test_bad_event_setting_rejected(self, name, value):
        with pytest.raises(GaitInputError, match=str(value)):
            EventConfig(**{name: value})

    @pytest.mark.parametrize("name", ["refractory_s", "prominence_deg", "back_event_timeout_s"])
    def test_checked_setting_cannot_be_reassigned(self, name):
        config = EventConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, math.nan)
        assert getattr(config, name) == getattr(EventConfig(), name)

    @pytest.mark.parametrize("rate", [0.0, -25.0, math.nan, math.inf])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(GaitInputError, match="rate"):
            DerivativeStream(rate)
        with pytest.raises(GaitInputError, match="rate"):
            MinimaDetector("series", 0.0, rate, EventConfig())

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_rejected(self, t0):
        # With last_accept_t starting at -inf, a trough at a NaN or -inf
        # time would fail the refractory test that a first trough must pass.
        with pytest.raises(GaitInputError, match="start time"):
            MinimaDetector("series", t0, RATE, EventConfig())


class TestDetectorState:
    def test_fresh_and_finalized_detectors_hold_no_pending_trough(self):
        s = 20.0 * np.sin(2 * np.pi * np.arange(0, 2, 1 / RATE))
        d = five_point_derivative(series(s)).values
        det = MinimaDetector("series", 0.0, RATE, EventConfig())
        assert (det._i, det.pending, det.run_max, det.last_accept_t) == (
            0, -1, -math.inf, -math.inf
        )
        det.extend_series(s)
        # The trough nearest 0.75 s is sample 19, and by sample 20 the
        # series has risen less than the 1 degree prominence above it.
        det.feed_derivative(d[:21])
        assert det.pending == 19 and det.frontier_t == 19 / RATE
        assert det.finalize() == [] and det.pending == -1
        assert det.frontier_t == 20 / RATE


def state_of(det):
    """The detector's state as its loops take it: five numbers."""
    return (det._i, det._d_prev, det.pending, det.run_max, det.last_accept_t)


def result_bits(result):
    """A detector loop's result, each float by its bits."""
    *state, found, outrun = result
    state = tuple(v.hex() if isinstance(v, float) else v for v in state)
    return state, [(j, t.hex(), v.hex()) for j, t, v in found], outrun


def event_bits(events):
    return [(e.series, e.index, e.t.hex(), e.value.hex()) for e in events]


@pytest.fixture(scope="module")
def minima(compiled_kernel):
    """The kernel's detector loop (see conftest.py for when it skips)."""
    return compiled_kernel.minima


@st.composite
def detector_case(draw):
    """A series with plateaus and ties, settings that include 0, and cuts of it.

    The series is a noisy wave rounded to a coarse step, so runs of equal
    samples (zero derivatives) and equal troughs are common.
    """
    n = draw(st.integers(5, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.0, 0.5, 2.0, 5.0]))
    t = np.arange(n) / RATE
    values = 20.0 * np.sin(2 * np.pi * rng.uniform(0.3, 3.0) * t) + rng.normal(0, 2.0, n)
    if step:
        values = np.round(values / step) * step
    # At 16 Hz, sample times are exact, so a refractory of a whole number of
    # periods lands exactly on the >= boundary.
    params = dict(
        prominence=draw(st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0.0, 10.0)),
        refractory=draw(st.sampled_from([0.0, 0.04, 0.0625, 0.125, 0.3]) | st.floats(0.0, 1.0)),
        t0=draw(st.sampled_from([0.0, 0.36]) | st.floats(-100.0, 100.0)),
        rate=draw(st.sampled_from([RATE, 16.0, 100.0]) | st.floats(1.0, 1000.0)),
    )
    cuts = draw(st.lists(st.integers(0, n), max_size=12))
    return values, params, sorted([0, n, *cuts])


def detector(params):
    config = EventConfig(refractory_s=params["refractory"], prominence_deg=params["prominence"])
    return MinimaDetector("series", params["t0"], params["rate"], config)


class TestMinimaKernel:
    """The kernel's `minima` returns what `_minima_loop` returns, bit for bit."""

    @PROPERTY
    @given(detector_case())
    def test_kernel_equals_python_loop_for_any_chunking(self, minima, case):
        values, params, bounds = case
        d = five_point_derivative(series(values, params["t0"], params["rate"])).values
        settings = (params["prominence"], params["refractory"], params["t0"], params["rate"])
        state = state_of(detector(params))
        found = 0
        for start, stop in zip(bounds, bounds[1:]):
            # The series reaches at least as far as the derivatives read.
            args = (array("d", values[:stop].tobytes()), d[start:stop], *state, *settings)
            got, want = minima(*args), _minima_loop(*args)
            assert result_bits(got) == result_bits(want)
            state = want[:5]
            found += len(want[5])
        whole = detector(params)
        whole.extend_series(values)
        assert found == len(whole.feed_derivative(d))

    def test_outrun_leaves_the_python_loops_state(self, minima, monkeypatch):
        s = 20.0 * np.sin(2 * np.pi * np.arange(0, 3, 1 / RATE))
        d = five_point_derivative(series(s)).values
        det = MinimaDetector("series", 0.0, RATE, EventConfig())
        settings = (det.config.prominence_deg, det.config.refractory_s, det.t0, det.rate_hz)
        args = (array("d", s[:40].tobytes()), d, *state_of(det), *settings)
        got, want = minima(*args), _minima_loop(*args)
        assert result_bits(got) == result_bits(want)
        assert got[6] is want[6] is True and want[:2] == (41, d[40])
        messages = []
        for module in (_kernel.loops(), _kernel.PYTHON):
            monkeypatch.setattr(_kernel, "loops", lambda: module)
            det = MinimaDetector("series", 0.0, RATE, EventConfig())
            det.extend_series(s[:40])
            with pytest.raises(GaitInputError) as err:
                det.feed_derivative(d)
            messages.append(str(err.value))
            assert state_of(det) == want[:5]
        assert messages[0] == messages[1] and "index 40 outruns series of 40" in messages[0]

    def test_refractory_boundary_is_inclusive(self, minima):
        # At 16 Hz sample times are exact: troughs every 0.25 s against a
        # 0.5 s refractory, so every other trough lands exactly on it.
        s = np.append(np.tile([10.0, 5.0, 0.0, 5.0], 10), 10.0)
        d = five_point_derivative(series(s, rate=16.0)).values
        args = (array("d", s.tobytes()), d, 0, 0.0, -1, -math.inf, -math.inf, 1.0, 0.5, 0.0, 16.0)
        got, want = minima(*args), _minima_loop(*args)
        assert result_bits(got) == result_bits(want)
        assert [j for j, _, _ in want[5]] == [2, 10, 18, 26, 34]

    @pytest.mark.parametrize(
        "values, event",
        [
            # The series falls from 4 to 3: run_max - s[j] equals the prominence.
            ([0, 1, 2, 3, 4, 3.5, 3, 3.5, 5, 7, 9, 11], 6),
            # The series rises from 0 to 1 and stays: s[i] - s[j] equals it.
            ([10, 8, 6, 4, 2, 0, 0.5, 1, 1, 1, 1], 5),
            # A flat trough, s[i - 1] == s[i] where the derivative turns.
            ([10, 8, 6, 4, 2, 0, 0, 2, 4, 6, 8, 10], 5),
        ],
        ids=["opens_at_prominence", "confirms_at_prominence", "tie_picks_the_earlier_sample"],
    )
    def test_boundary_cases(self, minima, values, event):
        # Each boundary test is inclusive (>= prominence, s[i - 1] <= s[i]),
        # so each case finds exactly one event, in either language.
        s = np.array(values, dtype=float)
        d = five_point_derivative(series(s)).values
        args = (array("d", s.tobytes()), d, 0, 0.0, -1, -math.inf, -math.inf, 1.0, 0.0, 0.0, RATE)
        got, want = minima(*args), _minima_loop(*args)
        assert result_bits(got) == result_bits(want)
        assert want[5] == [(event, event / RATE, s[event])]

    def test_detect_minima_without_the_kernel_gives_the_same_events(self, minima, monkeypatch, python_loops):
        rng = np.random.default_rng(7)
        t = np.arange(0, 12, 1 / RATE)
        s = series(20.0 * np.sin(2 * np.pi * t) + rng.normal(0, 0.5, len(t)))
        calls = []

        def counted(values, derivs, *state):
            calls.append(len(derivs))
            return minima(values, derivs, *state)

        monkeypatch.setattr(_kernel, "loops", lambda: SimpleNamespace(minima=counted))
        with_kernel = detect_minima(s)
        assert calls == [len(t)]
        # A live feed takes the kernel too, however few its derivatives.
        det = MinimaDetector("series", 0.0, RATE, EventConfig())
        det.extend_series(s.values)
        det.feed_derivative(np.zeros(1))
        det.feed_derivative(np.zeros(_SMALL_FEED - 1))
        det.feed_derivative(np.zeros(_SMALL_FEED))
        assert calls == [len(t), 1, _SMALL_FEED - 1, _SMALL_FEED]
        python_loops()
        without = detect_minima(s)
        assert len(without) == 12
        assert event_bits(with_kernel) == event_bits(without)

    def test_kernel_events_are_minimum_events(self, minima, python_loops):
        s = 20.0 * np.sin(2 * np.pi * np.arange(0, 6, 1 / RATE))
        d = five_point_derivative(series(s)).values
        fed_c, fed_py = (MinimaDetector("knee_R", 0.0, RATE, EventConfig()) for _ in range(2))
        for det in (fed_c, fed_py):
            det.extend_series(s)
        got = fed_c.feed_derivative(d)
        python_loops()
        want = fed_py.feed_derivative(d)
        assert len(got) == 6 and got == want
        for ev in got:
            assert type(ev) is MinimumEvent
            assert (ev.side, ev.kind) == ("R", "knee")
            assert ev.sort_key() == (ev.t, 1, 1)

    @pytest.mark.parametrize("shape", [(5, 2), (12, 2), (1, 1), ()], ids=["5x2", "12x2", "1x1", "scalar"])
    @pytest.mark.parametrize("kernel", ["as_built", "none"])
    def test_derivatives_not_1d_rejected(self, minima, shape, kernel, python_loops):
        # A (12, 2) feed used to reach the kernel, which read its 24 doubles
        # flat; a (5, 2) one failed in the Python loop with a bare TypeError.
        if kernel == "none":
            python_loops()
        s = 20.0 * np.sin(2 * np.pi * np.arange(0, 2, 1 / RATE))
        d = five_point_derivative(series(s)).values
        det = MinimaDetector("knee_L", 0.0, RATE, EventConfig())
        det.extend_series(s)
        det.feed_derivative(d[:21])  # a trough pending at sample 19
        before = state_of(det)
        with pytest.raises(GaitInputError, match="knee_L: derivatives are one channel"):
            det.feed_derivative(np.ones(shape))
        assert state_of(det) == before and before[2] == 19

    @pytest.mark.parametrize(
        "values_bytes, i, d_prev, pending",
        [(40, -1, 0.5, -1), (40, 3, 0.5, 5), (40, 3, 0.5, -2), (36, 3, 0.5, -1)],
        ids=["i_negative", "pending_past_the_series", "pending_below_minus_one", "partial_double"],
    )
    def test_state_outside_the_series_rejected(self, minima, values_bytes, i, d_prev, pending):
        with pytest.raises(ValueError):
            minima(bytes(values_bytes), array("d", [1.0, -1.0]), i, d_prev, pending,
                   -math.inf, -math.inf, 1.0, 0.3, 0.0, RATE)

    @pytest.mark.parametrize("i, pending", [(0, -1), (3, -1), (3, 4), (4, 4)])
    def test_state_inside_the_series_accepted(self, minima, i, pending):
        # The edges of the accepted range: i = 0 (d_prev unread) and
        # pending from -1 (no trough) to the last sample; from i = 4 the
        # second derivative outruns the 5-sample series.
        got = minima(bytes(40), array("d", [1.0, -1.0]), i, 0.5, pending,
                     -math.inf, -math.inf, 1.0, 0.3, 0.0, RATE)
        # A zero series: no event, and run_max rises to 0 only while no
        # trough is pending.
        run_max = 0.0 if pending == -1 else -math.inf
        assert got == (i + 2, -1.0, pending, run_max, -math.inf, [], i + 2 > 5)

    def test_one_derivative_feeds_through_the_outrun(self, minima):
        # As live chunks feed the detector: an empty feed, then one
        # derivative per call up to two past the series' end, then an empty
        # feed again.
        rng = np.random.default_rng(6)
        s = 20.0 * np.sin(2 * np.pi * np.arange(200) / RATE) + rng.normal(0, 0.5, 200)
        d = np.append(five_point_derivative(series(s)).values, [1.0, -1.0])
        values = array("d", s.tobytes())
        state, found, outruns = (0, 0.0, -1, -math.inf, -math.inf), 0, 0
        for feed in [d[:0], *(d[k : k + 1] for k in range(len(d))), d[:0]]:
            args = (values, feed, *state, 1.0, 0.3, 0.0, RATE)
            got, want = minima(*args), _minima_loop(*args)
            assert result_bits(got) == result_bits(want)
            state, found, outruns = want[:5], found + len(want[5]), outruns + want[6]
        assert found == 8 and outruns == 2


def cosine_quad(n_cycles=6, T=1.0, delta=0.1, rate=RATE):
    """Hand-built two-leg pattern with analytically known event times.

    knee_L minima at t = k*T (value 10); knee_R at k*T + T/2.
    hip_R minima at k*T + delta (value -10); hip_L at k*T + T/2 + delta.
    """
    t = np.arange(0, n_cycles * T, 1 / rate)
    knee_l = 31.0 - 21.0 * np.cos(2 * np.pi * t / T)
    knee_r = 31.0 - 21.0 * np.cos(2 * np.pi * (t - T / 2) / T)
    hip_r = 12.5 - 22.5 * np.cos(2 * np.pi * (t - delta) / T)
    hip_l = 12.5 - 22.5 * np.cos(2 * np.pi * (t - T / 2 - delta) / T)
    return AngleQuad(
        knee_l=series(knee_l),
        knee_r=series(knee_r),
        hip_l=series(hip_l),
        hip_r=series(hip_r),
    )


class TestSegmentSteps:
    def test_steps_alternate_and_pair_events(self):
        quad = cosine_quad(n_cycles=6, T=1.0, delta=0.1)
        steps = segment_steps(quad)
        assert len(steps) >= 8
        sides = [s.front_side for s in steps]
        assert all(a != b for a, b in zip(sides, sides[1:]))
        for s in steps:
            assert 0.0 < s.t_back_event - s.t_front_event <= 2.0
            # Back event follows the front event by delta.
            assert s.t_back_event - s.t_front_event == pytest.approx(0.1, abs=2 / RATE)

    def test_event_angles_sampled_at_events(self):
        quad = cosine_quad()
        steps = segment_steps(quad)
        # Analytic values of the waves at the event instants; the tolerance
        # covers the +-1 sample detection jitter times the local slope.
        alpha_f_true = 12.5 - 22.5 * np.cos(-1.2 * np.pi)
        for s in steps:
            assert s.angles.beta_f == pytest.approx(10.0, abs=1.0)
            assert s.angles.alpha_b == pytest.approx(-10.0, abs=1.0)
            assert s.angles.alpha_f == pytest.approx(alpha_f_true, abs=3.5)

    def test_fifty_percent_phase_shift_back_event_always_found(self):
        quad = cosine_quad(n_cycles=10)
        steps = segment_steps(quad)
        # One L-front and one R-front step per cycle once the pattern is
        # established (the t=0 edge trough has no left prominence).
        assert len(steps) >= 2 * 10 - 3
        diffs = [s.t_back_event - s.t_front_event for s in steps]
        assert np.allclose(diffs, 0.1, atol=2 / RATE)

    def test_config_reaches_the_detector(self):
        # The swings are 42 deg (knee) and 45 deg (hip): a 50 deg prominence
        # confirms no minimum, so no step, where the default finds them.
        quad = cosine_quad()
        assert len(segment_steps(quad, EventConfig())) >= 8
        diags = []
        assert segment_steps(quad, EventConfig(prominence_deg=50.0), diags) == []
        assert diags == []
        # A refractory longer than the 1 s cycle keeps every other trough of
        # each series, so fewer steps complete.
        assert len(segment_steps(quad, EventConfig(refractory_s=1.5))) < len(segment_steps(quad))

    def test_missing_back_event_times_out(self):
        quad = cosine_quad(n_cycles=6)
        flat_hip_r = series(np.full(len(quad.hip_r.values), 5.0))
        broken = AngleQuad(
            knee_l=quad.knee_l,
            knee_r=quad.knee_r,
            hip_l=quad.hip_l,
            hip_r=flat_hip_r,
        )
        diags = []
        steps = segment_steps(broken, diagnostics=diags)
        # L-front steps can never complete (their back event is hip_R).
        assert all(s.front_side == "R" for s in steps)
        assert any("discarded" in d for d in diags)

    def test_misaligned_series_rejected(self):
        good = cosine_quad()
        with pytest.raises(GaitInputError):
            AngleQuad(
                knee_l=series(good.knee_l.values, t0=0.5),
                knee_r=good.knee_r,
                hip_l=good.hip_l,
                hip_r=good.hip_r,
            )

    def test_nan_start_time_rejected(self):
        # UniformSeries is frozen, so its own check on t0 holds; a NaN t0
        # forced past it still fails the quad's spread test rather than
        # being read as 0.
        quad = cosine_quad()
        for name in ("knee_l", "hip_r"):
            parts = {k: getattr(quad, k) for k in ("knee_l", "knee_r", "hip_l", "hip_r")}
            parts[name] = series(parts[name].values)
            with pytest.raises(dataclasses.FrozenInstanceError):
                parts[name].t0 = math.nan
            object.__setattr__(parts[name], "t0", math.nan)
            with pytest.raises(GaitInputError, match="start times"):
                AngleQuad(**parts)

    def test_mismatched_rates_rejected(self):
        good = cosine_quad()
        with pytest.raises(GaitInputError):
            AngleQuad(
                knee_l=series(good.knee_l.values, rate=50.0),
                knee_r=good.knee_r,
                hip_l=good.hip_l,
                hip_r=good.hip_r,
            )


class TestTieBreaks:
    def test_simultaneous_events_order(self):
        # Equal timestamps: Left before Right, hip before knee within a side.
        evs = [
            MinimumEvent("knee_R", 10, 0.4, 1.0),
            MinimumEvent("hip_R", 10, 0.4, -1.0),
            MinimumEvent("knee_L", 10, 0.4, 1.0),
            MinimumEvent("hip_L", 10, 0.4, -1.0),
        ]
        evs.sort(key=MinimumEvent.sort_key)
        assert [e.series for e in evs] == ["hip_L", "knee_L", "hip_R", "knee_R"]

    def test_segment_steps_feeds_events_in_sort_key_order(self, monkeypatch):
        # All four series share their minima, so every event time is a
        # four-way tie; segment_steps sorts by t alone and must still give
        # the sort_key order.
        values = 20.0 - 20.0 * np.cos(2 * np.pi * np.arange(0, 6, 1 / RATE))
        quad = AngleQuad(*(series(values) for _ in range(4)))
        fed = []
        loops = _kernel.loops()

        def segment(events, *rest):
            fed.extend(events)
            return loops.segment(events, *rest)

        recording = SimpleNamespace(minima=loops.minima, segment=segment)
        monkeypatch.setattr(_kernel, "loops", lambda: recording)
        segment_steps(quad)
        found = [ev for name in ("knee_L", "knee_R", "hip_L", "hip_R")
                 for ev in detect_minima(quad.series(name), series_id=name)]
        assert len(found) == 4 * 5 and len({ev.t for ev in found}) == 5
        assert fed == sorted(found, key=MinimumEvent.sort_key)


def both_loops():
    """The Python loops, then the C kernel where it loads: for the tests
    that run on both in one body."""
    kernel = _kernel.loops()
    return [_kernel.PYTHON] + ([kernel] if kernel is not _kernel.PYTHON else [])


def quad_buffers(quad):
    """The quad's four series as the segment loop's buffer sampler takes them."""
    return tuple((quad.series(name).values, quad.series(name).t0, quad.series(name).rate_hz)
                 for name in SEGMENT_SERIES)


def loop_sample(segment, buffers, name, t):
    """The value the segment loop reads from series `name` at time t.

    A knee event reads its own side's hip series at its time, into the
    pending front event's alpha_f; a hip event that completes a step reads
    its own side's knee series, into the row's beta_b.
    """
    side = name[-1]
    if name.startswith("hip"):
        state, _, _ = segment([MinimumEvent(f"knee_{side}", 0, t, 0.0)], buffers,
                              _SEGMENTER_START, 1.0)
        return state[4]
    # A front event of the other side pending at -inf, and no timeout, so
    # any t but -inf completes a step.
    state = (True, 1 if side == "L" else 0, -math.inf, 0.0, 0.0, -1, 0)
    _, rows, _ = segment([MinimumEvent(f"hip_{side}", 0, t, 0.0)], buffers, state, math.inf)
    return rows[0][5]


class TestQuadSampler:
    """The segment loop's buffer sampling reads `float(s.values[s.index_near(t)])`."""

    @staticmethod
    def check(quad, times):
        buffers = quad_buffers(quad)
        for loops in both_loops():
            for name in SEGMENT_SERIES:
                s = quad.series(name)
                for t in times:
                    got = loop_sample(loops.segment, buffers, name, t)
                    want = float(s.values[s.index_near(t)])
                    assert type(got) is float
                    assert got.hex() == want.hex(), (loops, name, t)

    def test_exact_half_sample_ties(self):
        # At 4 Hz from t0 = 0.25 the times below sit exactly halfway between
        # samples, so the index rounds half to even.
        rng = np.random.default_rng(0)
        quad = AngleQuad(*(series(rng.normal(0, 20, 12), t0=0.25, rate=4.0) for _ in range(4)))
        halves = [0.25 + (k + 0.5) / 4.0 for k in range(-3, 14)]
        assert all(((t - 0.25) * 4.0) % 1.0 == 0.5 for t in halves)
        self.check(quad, halves)

    def test_times_before_the_start_and_past_the_end(self):
        quad = cosine_quad()
        t_end = quad.knee_l.t0 + (len(quad.knee_l) - 1) / RATE
        self.check(quad, [-1e9, -3.0, -0.02, -0.0, 0.0, 0.019, 0.021, t_end, t_end + 0.02, t_end + 1.0, 1e9])

    def test_random_times_with_an_offset_grid(self):
        rng = np.random.default_rng(1)
        quad = AngleQuad(*(series(rng.normal(0, 20, 300), t0=0.36) for _ in range(4)))
        self.check(quad, rng.uniform(-1.0, 14.0, 500).tolist())

    @pytest.mark.parametrize("t", [-math.inf, math.inf, math.nan, -1e300, 1e300])
    def test_index_near_reads_the_loops_sample_at_any_time(self, loops_module, t):
        # The loops clamp these as floats: -inf and NaN read the first
        # sample, +inf the last; index_near used to raise OverflowError at
        # +-inf and ValueError at NaN. (No step completes at t = -inf, so
        # only a hip series is read there.)
        quad = cosine_quad()
        buffers = quad_buffers(quad)
        for name in SEGMENT_SERIES:
            s = quad.series(name)
            i = s.index_near(t)
            assert type(i) is int and i == (0 if not t > 0.0 else len(s) - 1)
            if name.startswith("hip") or t != -math.inf:
                assert loop_sample(loops_module.segment, buffers, name, t) == s.values[i], (name, t)

    def test_index_near_reads_the_loops_sample_on_the_grid(self, loops_module):
        rng = np.random.default_rng(2)
        quad = AngleQuad(*(series(rng.normal(0, 20, 40), t0=0.36) for _ in range(4)))
        buffers = quad_buffers(quad)
        for name in SEGMENT_SERIES:
            s = quad.series(name)
            for k, t in enumerate(s.t.tolist()):
                assert s.index_near(t) == k
                assert loop_sample(loops_module.segment, buffers, name, t) == s.values[k], (name, t)

    def test_an_empty_series_raises_only_when_sampled(self, loops_module):
        quad = quad_buffers(cosine_quad())
        empty = (np.empty(0), 0.0, RATE)
        buffers = (empty, *quad[1:])  # hip_L
        # A knee_R event samples hip_R, which is there.
        state, _, _ = loops_module.segment(
            [MinimumEvent("knee_R", 0, 0.5, 0.0)], buffers, _SEGMENTER_START, 1.0)
        assert state[0] is True
        with pytest.raises(IndexError):
            loops_module.segment([MinimumEvent("knee_L", 0, 0.5, 0.0)], buffers,
                                 _SEGMENTER_START, 1.0)


class SegmenterOracle:
    """StepSegmenter's state machine written plainly, reading `ev.side`,
    `ev.kind` and `self.pending` at each use: the reference it must equal."""

    def __init__(self, config, sampler):
        self.config, self.sampler = config, sampler
        self.diagnostics, self.pending, self.last_front_side, self.count = [], None, None, 0

    def _discard(self, reason):
        p = self.pending
        self.diagnostics.append(f"discarded front event ({p['side']} at {p['t']:.3f} s): {reason}")
        self.pending = None

    def process(self, ev):
        timeout = self.config.back_event_timeout_s
        if self.pending is not None and ev.t - self.pending["t"] > timeout:
            self._discard(f"no back-limb hip minimum within {timeout} s")
        if ev.kind == "knee":
            if self.pending is not None:
                self._discard(f"front knee minimum on {ev.side} arrived first")
            alpha_f = self.sampler(f"hip_{ev.side}", ev.t)
            self.pending = dict(side=ev.side, t=ev.t, beta_f=ev.value, alpha_f=alpha_f)
            return None
        if self.pending is None:
            return None
        if ev.side == self.pending["side"]:
            self.diagnostics.append(
                f"ignored same-side hip minimum ({ev.side} at {ev.t:.3f} s) while awaiting the back limb"
            )
            return None
        if ev.t <= self.pending["t"]:
            self.diagnostics.append(
                f"ignored hip minimum ({ev.side} at {ev.t:.3f} s) not after the front event"
            )
            return None
        if self.last_front_side is not None and self.pending["side"] == self.last_front_side:
            self._discard("front side did not alternate")
            self.last_front_side = None
            return None
        p = self.pending
        step = (self.count, p["side"], p["alpha_f"], p["beta_f"], ev.value,
                self.sampler(f"knee_{ev.side}", ev.t), p["t"], ev.t)
        self.count += 1
        self.last_front_side = p["side"]
        self.pending = None
        return step

    def finalize(self):
        if self.pending is not None:
            self._discard("stream ended before the back-limb hip minimum")


@st.composite
def event_stream(draw):
    """Minimum events in sort_key order on a coarse grid, so that equal times,
    same-side repeats, missing back events and timeouts all occur."""
    names = st.sampled_from(["knee_L", "knee_R", "hip_L", "hip_R"])
    raw = draw(st.lists(st.tuples(names, st.integers(0, 120), st.floats(-90.0, 90.0)), max_size=60))
    events = [MinimumEvent(name, k, k / 8.0, value) for name, k, value in raw]
    return sorted(events, key=MinimumEvent.sort_key)


def index_near_sampler(quad):
    """The reference sampler over a quad: `float(s.values[s.index_near(t)])`."""
    return lambda name, t: float(quad.series(name).values[quad.series(name).index_near(t)])


def offset_quad(rng, n=100):
    """Four series of random values at 8 Hz, each with its own start time.

    The event grid of `event_stream` is k / 8, so the 0.0625 start puts
    every event time on a half-sample tie, and events run past the end.
    """
    t0s = (0.0, 0.0625, 0.01, 0.03)
    return AngleQuad(*(series(rng.normal(0, 20, n), t0=t0, rate=8.0) for t0 in t0s))


def as_oracle_state(state):
    """The loop's state as the oracle holds it: pending (side, t, beta_f,
    alpha_f) or None, the last front side and the count."""
    pending, side, t, beta_f, alpha_f, last_front, count = state
    sides = ("L", "R")
    return ((sides[side], t, beta_f, alpha_f) if pending else None,
            sides[last_front] if last_front >= 0 else None, count)


def oracle_pending(oracle):
    p = oracle.pending
    return None if p is None else (p["side"], p["t"], p["beta_f"], p["alpha_f"])


def bits(x):
    """Nested tuples and lists with each float as its hex bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return type(x)(bits(v) for v in x)
    return x


def hip_sampler(name, t):
    return float(len(name)) + t / 3.0 if name.startswith("hip") else 5.0 - t / 7.0


QUAD = cosine_quad()
QUAD_BUFFERS = quad_buffers(QUAD)


class TestStepSegmenter:
    @PROPERTY
    @given(event_stream(), st.sampled_from([0.125, 0.5, 2.0]))
    def test_equals_the_oracle(self, events, timeout):
        # A callable sampler runs on the Python loop alone; both loops read
        # the quad's buffers.
        self.check_against_the_oracle(_kernel.PYTHON, hip_sampler, hip_sampler, events, timeout)
        for loops in both_loops():
            self.check_against_the_oracle(loops, QUAD_BUFFERS, index_near_sampler(QUAD),
                                          events, timeout)

    @staticmethod
    def check_against_the_oracle(loops, sampler, oracle_sampler, events, timeout):
        config = EventConfig(back_event_timeout_s=timeout)
        seg = StepSegmenter(config, sampler)
        oracle = SegmenterOracle(config, oracle_sampler)
        with mock.patch.object(_kernel, "loops", lambda: loops):
            for ev in events:
                got, want = seg.process(ev), oracle.process(ev)
                if want is None:
                    assert got is None
                else:
                    a = got.angles
                    assert (got.index, got.front_side, a.alpha_f, a.beta_f, a.alpha_b, a.beta_b,
                            got.t_front_event, got.t_back_event) == want
                    assert math.isnan(got.length_cm)
                assert seg.diagnostics == oracle.diagnostics
                assert (seg.count, seg.last_front_side) == (oracle.count, oracle.last_front_side)
                assert seg.pending == oracle_pending(oracle)
            seg.finalize()
        oracle.finalize()
        assert seg.diagnostics == oracle.diagnostics and seg.pending is None

    @pytest.mark.parametrize("kind", ["knee_R", "hip_L"])
    def test_finalize_with_a_step_pending(self, loops_module, kind, monkeypatch):
        monkeypatch.setattr(_kernel, "loops", lambda: loops_module)
        diags = ["earlier"]
        seg = StepSegmenter(EventConfig(), QUAD_BUFFERS, diags)
        seg.process(MinimumEvent("knee_L", 3, 0.125, 12.5))
        assert seg.process(MinimumEvent(kind, 4, 0.25, -2.0)) is None
        seg.finalize()
        side = "R" if kind == "knee_R" else "L"
        t = "0.250" if kind == "knee_R" else "0.125"
        assert diags[-1] == (
            f"discarded front event ({side} at {t} s): stream ended before the back-limb hip minimum"
        )
        assert seg.diagnostics is diags and seg.pending is None
        seg.finalize()  # nothing left to discard
        assert len(diags) == 3  # "earlier", the second event's and the finalize's

    # A callable sampler runs on the Python loop alone.
    @pytest.mark.parametrize("loops_module", ["python_loops"], indirect=True)
    def test_a_raising_sampler_propagates_and_changes_nothing(self, loops_module, monkeypatch):
        monkeypatch.setattr(_kernel, "loops", lambda: loops_module)

        def sampler(name, t):
            raise KeyError(name)

        seg = StepSegmenter(EventConfig(), sampler)
        before = seg._state
        with pytest.raises(KeyError, match="hip_L"):
            seg.process(MinimumEvent("knee_L", 3, 0.125, 12.5))
        assert seg._state == before and seg.diagnostics == []


class TestSegmentKernel:
    """The kernel's `segment`, `_segment_loop` and `SegmenterOracle` agree."""

    @PROPERTY
    @given(event_stream(), st.sampled_from([0.125, 0.5, 2.0]), st.booleans(),
           st.integers(0, 2**32 - 1), st.lists(st.integers(0, 60), max_size=5))
    def test_kernel_twin_and_oracle_agree(self, loops_module, events, timeout, buffered,
                                          seed, cuts):
        """Over any cut of the events into calls, the state passed along. A
        callable sampler is the Python loop's alone, so it runs there."""
        quad = offset_quad(np.random.default_rng(seed))
        sampler = quad_buffers(quad) if buffered else hip_sampler
        segment = loops_module.segment if buffered else _segment_loop
        oracle = SegmenterOracle(EventConfig(back_event_timeout_s=timeout),
                                 index_near_sampler(quad) if buffered else hip_sampler)
        want_rows = [r for ev in events if (r := oracle.process(ev)) is not None]
        state, rows, diags = _SEGMENTER_START, [], []
        bounds = sorted({0, len(events), *(c for c in cuts if c < len(events))})
        for start, stop in zip(bounds, bounds[1:]):
            args = (events[start:stop], sampler, state, timeout)
            got, want = segment(*args), _segment_loop(*args)
            assert bits(got) == bits(want)
            state = want[0]
            rows += want[1]
            diags += want[2]
        assert rows == want_rows
        assert [_DIAGNOSTICS[code].format(*values) for code, *values in diags] == oracle.diagnostics
        assert as_oracle_state(state) == (
            oracle_pending(oracle), oracle.last_front_side, oracle.count
        )

    def test_empty_list_returns_the_state(self, loops_module):
        state = (True, 1, 0.5, 10.0, -4.0, 0, 7)
        assert loops_module.segment([], quad_buffers(cosine_quad()), state, 2.0) == (state, [], [])
        assert _segment_loop([], hip_sampler, state, 2.0) == (state, [], [])

    def test_every_diagnostic_code(self, loops_module):
        events = [
            MinimumEvent("knee_L", 0, 0.0, 1.0),
            MinimumEvent("knee_R", 0, 0.5, 1.0),  # 1: L discarded, R pending
            MinimumEvent("hip_R", 0, 0.75, 1.0),  # 2: same side
            MinimumEvent("knee_L", 0, 3.0, 1.0),  # 0: R timed out; L pending
            MinimumEvent("hip_R", 0, 3.25, 1.0),  # step 0 (front L)
            MinimumEvent("hip_L", 0, 3.5, 1.0),  # nothing pending: ignored silently
            MinimumEvent("knee_L", 0, 4.0, 1.0),
            MinimumEvent("hip_R", 0, 4.0, 1.0),  # 3: not after the front event
            MinimumEvent("hip_R", 0, 4.25, 1.0),  # 4: front side did not alternate
            MinimumEvent("knee_L", 0, 5.0, 1.0),
            MinimumEvent("hip_R", 0, 5.25, 1.0),  # step 1 (front L again, after the resync)
        ]
        state, rows, diags = _segment_loop(events, hip_sampler, _SEGMENTER_START, 2.0)
        assert [d[0] for d in diags] == [1, 2, 0, 3, 4]
        assert [(r[0], r[1], r[6], r[7]) for r in rows] == [(0, "L", 3.0, 3.25), (1, "L", 5.0, 5.25)]
        assert state == (False, 0, 5.0, 1.0, hip_sampler("hip_L", 5.0), 0, 2)
        # The same codes with the paired angles read from four buffers, on
        # the loop under test.
        buffers = quad_buffers(cosine_quad())
        want = _segment_loop(events, buffers, _SEGMENTER_START, 2.0)
        assert loops_module.segment(events, buffers, _SEGMENTER_START, 2.0) == want
        assert [d[0] for d in want[2]] == [1, 2, 0, 3, 4]

    def test_diagnostic_strings_print_the_timeout_as_given(self, loops_module, monkeypatch):
        monkeypatch.setattr(_kernel, "loops", lambda: loops_module)
        for timeout, text in ((2, "2"), (0.5, "0.5")):
            seg = StepSegmenter(EventConfig(back_event_timeout_s=timeout), QUAD_BUFFERS)
            seg.process(MinimumEvent("knee_L", 0, 0.0, 1.0))
            seg.process(MinimumEvent("hip_R", 0, 9.0, 1.0))
            assert seg.diagnostics == [
                f"discarded front event (L at 0.000 s): no back-limb hip minimum within {text} s"
            ]

    # A callable sampler runs on the Python loop alone.
    @pytest.mark.parametrize("loops_module", ["python_loops"], indirect=True)
    def test_a_sampler_may_empty_the_list(self, loops_module):
        events = [MinimumEvent("knee_L", 0, 0.0, 1.0), MinimumEvent("knee_R", 0, 0.5, 1.0)]

        def sampler(name, t):
            events.clear()
            return 1.5

        state, rows, diags = loops_module.segment(events, sampler, _SEGMENTER_START, 2.0)
        assert state == (True, 0, 0.0, 1.0, 1.5, -1, 0) and rows == [] and diags == []

    def test_an_event_field_may_empty_the_list(self, compiled_kernel):
        """The kernel reads an event's numbers through their __float__, which
        may change the list: each event is held while it runs."""

        class Clears:
            def __float__(self):
                events.clear()
                return 1.0

        # A series name built at run time, so the event is its only holder.
        events = [("".join(("knee", "_L")), 0, 0.0, Clears()), ("knee_R", 0, 0.5, 1.0)]
        state, rows, diags = compiled_kernel.segment(events, QUAD_BUFFERS, _SEGMENTER_START, 2.0)
        alpha_f = QUAD_BUFFERS[0][0][0]  # hip_L at t = 0
        assert state == (True, 0, 0.0, 1.0, alpha_f, -1, 0) and rows == [] and diags == []

    @pytest.mark.parametrize("event, error", [
        (("knee_L", 0, 0.5), ValueError),
        (("knee_L", 0, 0.5, 1.0, 2.0), ValueError),
        (["knee_L", 0, 0.5, 1.0], TypeError),
        ((b"knee_L", 0, 0.5, 1.0), TypeError),
        (("knee_L", 0, "0.5", 1.0), TypeError),
        (("knee_L", 0, 0.5, None), TypeError),
    ])
    def test_malformed_events_raise(self, compiled_kernel, event, error):
        with pytest.raises(error):
            compiled_kernel.segment([event], QUAD_BUFFERS, _SEGMENTER_START, 2.0)

    @pytest.mark.parametrize("sampler, state, error", [
        (None, _SEGMENTER_START, TypeError),
        ((), _SEGMENTER_START, TypeError),
        (((b"12345678", 0.0, 25.0),) * 3, _SEGMENTER_START, TypeError),
        (((b"123456789", 0.0, 25.0),) * 4, _SEGMENTER_START, ValueError),
        (((np.zeros(4)[::2], 0.0, 25.0),) * 4, _SEGMENTER_START, ValueError),  # not contiguous
        (QUAD_BUFFERS, (False, 2, 0.0, 0.0, 0.0, -1, 0), ValueError),
        (QUAD_BUFFERS, (False, 0, 0.0, 0.0, 0.0, -2, 0), ValueError),
        (QUAD_BUFFERS, (False, 0, 0.0, 0.0, 0.0, -1), TypeError),
        (hip_sampler, _SEGMENTER_START, TypeError),  # the kernel takes no callable
    ])
    def test_bad_samplers_and_states_raise(self, compiled_kernel, sampler, state, error):
        with pytest.raises(error):
            compiled_kernel.segment([MinimumEvent("knee_L", 0, 0.5, 1.0)], sampler, state, 2.0)

    def test_events_must_be_a_list(self, compiled_kernel):
        with pytest.raises(TypeError):
            compiled_kernel.segment((MinimumEvent("knee_L", 0, 0.5, 1.0),), QUAD_BUFFERS,
                                    _SEGMENTER_START, 2.0)


def step_bits(step):
    """A step's fields, each float as its hex bits (its length is NaN), or None."""
    return None if step is None else bits(dataclasses.astuple(step))


class TestSamplerForms:
    """Buffers go to `_kernel.loops().segment` and a callable to the Python
    loop; the segmenter checks buffers once, at construction."""

    @PROPERTY
    @given(event_stream(), st.sampled_from([0.125, 0.5, 2.0]), st.integers(0, 2**32 - 1))
    def test_a_callable_and_the_buffers_give_the_same_steps(self, loops_module, events, timeout,
                                                             seed):
        quad = offset_quad(np.random.default_rng(seed))
        config = EventConfig(back_event_timeout_s=timeout)
        with mock.patch.object(_kernel, "loops", lambda: loops_module):
            by_call = StepSegmenter(config, index_near_sampler(quad))
            by_buffers = StepSegmenter(config, quad_buffers(quad))
            for ev in events:
                assert step_bits(by_call.process(ev)) == step_bits(by_buffers.process(ev))
                assert bits(by_call._state) == bits(by_buffers._state)
            assert by_call.diagnostics == by_buffers.diagnostics
            by_call = StepSegmenter(config, index_near_sampler(quad))
            by_buffers = StepSegmenter(config, quad_buffers(quad))
            assert bits(by_call.run(events)) == bits(by_buffers.run(events))
            assert bits(by_call._state) == bits(by_buffers._state)
            assert by_call.diagnostics == by_buffers.diagnostics

    @pytest.mark.parametrize("values", [
        np.arange(40),
        np.arange(40, dtype=np.float32),
        np.arange(40.0).astype(">f8"),
        np.arange(80.0)[::2],
        list(np.arange(40.0)),
    ], ids=["int64", "float32", "big-endian", "strided", "list"])
    def test_buffers_must_be_native_doubles(self, loops, values):
        # The kernel would read any buffer's bytes as doubles: int64 as
        # denormals, float32 pairs as one wild angle.
        good = (np.arange(40.0), 0.0, 25.0)
        buffers = [good] * 4
        buffers[2] = (values, 0.0, 25.0)  # hip_R
        with pytest.raises(GaitInputError, match="hip_R"):
            StepSegmenter(EventConfig(), tuple(buffers))

    @pytest.mark.parametrize("sampler", [None, [(np.arange(4.0), 0.0, 25.0)] * 4,
                                         ((np.arange(4.0), 0.0, 25.0),) * 3,
                                         ((np.arange(4.0), 0.0),) * 4])
    def test_other_samplers_rejected(self, sampler):
        with pytest.raises(GaitInputError):
            StepSegmenter(EventConfig(), sampler)

    def test_checked_buffers_stay_resizable(self, loops):
        series = [array("d", np.arange(40.0)) for _ in SEGMENT_SERIES]
        seg = StepSegmenter(EventConfig(), tuple((s, 0.0, 25.0) for s in series))
        for s in series:
            s.extend([40.0, 41.0])  # a live export still held would raise BufferError
        seg.process(MinimumEvent("knee_L", 0, 0.2, 1.0))
        step = seg.process(MinimumEvent("hip_R", 0, 1.64, 1.0))
        assert (step.angles.alpha_f, step.angles.beta_b) == (5.0, 41.0)
