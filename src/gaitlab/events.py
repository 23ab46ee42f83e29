"""Gait-cycle segmentation from the four 25 Hz angle series.

A step is delimited by two minima: the front leg's knee-angle minimum
(initial contact; the hip angle of that leg is sampled at the same instant)
and the other leg's subsequent hip-angle minimum (foot-off; that leg's knee
angle is sampled there). Front and back limbs alternate continuously.

Minima are found on the five-point derivative of each series: a minimum is
marked where the derivative changes from negative (or zero) to positive.
Candidates are debounced by a refractory window and by prominence: the
series must have risen at least `prominence` above the trough on both
sides. Prominence confirmation makes detection causal with a latency of a
few samples beyond the derivative stencil's two-sample look-ahead.

The detector and segmenter are incremental; the batch operations feed them
a whole series at once and produce identical results. Every feed, live or
batch, runs the detector loop `minima` of `gaitlab._kernel`, and every
segmenter call its loop `segment`, in C where the kernel loads and in
Python where it does not. `gaitlab.pipeline`'s analyzer hands the
segmenter each release's sorted events in one call, `segment_steps` all
the events of a quad. Both pass the four series as buffers that the loop
reads in place (the live detectors' series, or the quad's); a callable
sampler is taken too, and runs on the Python loop alone. The loop
reports each discarded or ignored event as a code and the values its
message prints, and the segmenter formats every diagnostic through one
table, `_DIAGNOSTICS`.

A `MinimumEvent` is a NamedTuple rather than a frozen dataclass: a
one-minute walk yields a few hundred of them, each built, sorted and read
by the segmenter, and a tuple's construction and field reads cost a
fraction of a frozen dataclass's per-field `object.__setattr__`.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from . import _kernel
from .core import EventAngles, Side, StepMeasurement, attach_lengths  # noqa: F401  (re-exported)
from .errors import GaitInputError
from .signal import UniformSeries, _check_rate

SeriesKind = Literal["knee", "hip"]

DEFAULT_REFRACTORY_S = 0.3
DEFAULT_PROMINENCE_DEG = 1.0
DEFAULT_BACK_EVENT_TIMEOUT_S = 2.0


class MinimumEvent(NamedTuple):
    """A confirmed local minimum on one angle series.

    A NamedTuple, not a dataclass, for speed (see the module docstring): a
    segmentation builds, sorts and reads one per trough. Events are
    immutable as before, and compare, hash and unpack as tuples of their
    four fields.
    """

    series: str  # "knee_L", "knee_R", "hip_L", "hip_R"
    index: int
    t: float
    value: float

    @property
    def kind(self) -> SeriesKind:
        return "knee" if self.series.startswith("knee") else "hip"

    @property
    def side(self) -> Side:
        return "L" if self.series.endswith("L") else "R"

    def sort_key(self):
        # Simultaneous minima: earliest first, Left before Right, and the
        # hip event of a pending step ahead of the knee event opening the
        # next one. `side` and `kind` inline, as this runs once per event.
        series = self.series
        return (self.t, 0 if series.endswith("L") else 1, 1 if series.startswith("knee") else 0)


# The four series in `sort_key`'s tie order. `segment_steps` concatenates
# their events in this order and sorts stably by `t` alone, which gives the
# `sort_key` order without a Python key call per event; it is also the
# order in which the segmenter takes the series as buffers.
_TIE_ORDER = _kernel.SEGMENT_SERIES
_event_t = operator.itemgetter(2)

# MinimumEvent's own __new__ ends in tuple.__new__(cls, fields); calling it
# directly skips a Python frame per event (see `feed_derivative`).
_tuple_new = tuple.__new__
_F64 = _kernel.F64


@dataclass(frozen=True)
class EventConfig:
    refractory_s: float = DEFAULT_REFRACTORY_S
    prominence_deg: float = DEFAULT_PROMINENCE_DEG
    back_event_timeout_s: float = DEFAULT_BACK_EVENT_TIMEOUT_S

    def __post_init__(self):
        # Written so that NaN fails each test.
        if not self.refractory_s >= 0:
            raise GaitInputError(f"refractory must be >= 0, got {self.refractory_s}")
        if not self.prominence_deg >= 0:
            raise GaitInputError(f"prominence must be >= 0, got {self.prominence_deg}")
        if not self.back_event_timeout_s > 0:
            raise GaitInputError(
                f"back-event timeout must be > 0, got {self.back_event_timeout_s}"
            )


# Below this many derivatives per feed, `DerivativeStream.feed`'s Python
# floats beat the fixed cost of numpy's array operations.
_SMALL_FEED = 10


class DerivativeStream:
    """Incremental five-point derivative of a uniform series.

    Interior samples use the exact stencil

        d[k] = (s[k-2] - 8 s[k-1] + 8 s[k+1] - s[k+2]) / (12 h)

    which is exact for cubics. The first two and last two samples fall back
    to one-sided/short differences and are approximate; the final two can
    only be emitted once the stream ends.

    Only the last four samples and the sample count are kept, so memory
    stays constant however long the stream runs: a new sample completes the
    stencil of the sample two before it, which reaches back two more, and
    no formula reaches further back than that.
    """

    def __init__(self, rate_hz: float):
        _check_rate(rate_hz)
        self.h = 1.0 / rate_hz
        self.tail: list[float] = []  # the last min(n, 4) samples
        self.n = 0  # samples fed so far
        self.finalized = False

    def feed(self, new_values: ArrayLike) -> np.ndarray:
        if self.finalized:
            raise GaitInputError("derivative stream fed after finalize")
        # The samples tail + new start two samples before the first interior
        # derivative still to emit, where its stencil starts.
        new = np.asarray(new_values, dtype=_F64)
        if new.ndim != 1:
            raise GaitInputError(f"a series is one channel, got samples of shape {new.shape}")
        n = self.n
        self.n = n + len(new)
        h = self.h
        k = len(self.tail) + len(new) - 4  # interior derivatives now complete, if > 0
        # Both branches evaluate ((a - 8b) + 8c) - d, then / (12 h), in IEEE
        # doubles, so they give the same bits; Python floats written into
        # one array are faster for the one or two derivatives of a live
        # chunk, numpy for a whole series.
        if k < _SMALL_FEED:
            s = self.tail + new.tolist()
            c = 12.0 * h
            d = np.empty(k if k > 0 else 0)
            for i in range(k):
                d[i] = (s[i] - 8.0 * s[i + 1] + 8.0 * s[i + 3] - s[i + 4]) / c
        else:
            arr = np.concatenate([self.tail, new]) if self.tail else new
            d = (
                arr[:k]
                - 8.0 * arr[1 : k + 1]
                + 8.0 * arr[3 : k + 3]
                - arr[4 : k + 4]
            ) / (12.0 * h)
            # As Python floats, the only samples read below: the head's first
            # three and the tail's last four (arr holds at least 14).
            s = arr[:3].tolist() + arr[-4:].tolist()
        self.tail = s[-4:]
        if n < 3 <= self.n:  # the two head derivatives are due
            head = [(-3.0 * s[0] + 4.0 * s[1] - s[2]) / (2.0 * h), (s[2] - s[0]) / (2.0 * h)]
            d = np.concatenate([head, d])
        return d

    def finalize(self) -> np.ndarray:
        if self.finalized:
            return np.asarray([])
        self.finalized = True
        n = self.n
        if n < 5:
            raise GaitInputError(f"five-point derivative needs >= 5 samples, got {n}")
        h = self.h
        s = self.tail  # samples n-4 .. n-1
        return np.asarray([
            (s[-1] - s[-3]) / (2.0 * h),
            (3.0 * s[-1] - 4.0 * s[-2] + s[-3]) / (2.0 * h),
        ])


def five_point_derivative(series: UniformSeries) -> UniformSeries:
    """Batch five-point derivative; same length and timestamps as the input."""
    stream = DerivativeStream(series.rate_hz)
    head = stream.feed(series.values)
    tail = stream.finalize()
    return UniformSeries(series.t0, series.rate_hz, np.concatenate([head, tail]))


class MinimaDetector:
    """Single-pass trough detection with refractory and prominence debounce.

    The series values arrive via extend_series(); derivative values arrive
    via feed_derivative() (typically lagging by the stencil look-ahead). A
    candidate opens where the derivative crosses from <= 0 to > 0, provided
    the series has dropped at least `prominence` below the running maximum
    since the previous accepted event and the trough clears the refractory
    window. The candidate is confirmed once the series rises `prominence`
    above it, migrating to any deeper trough seen before confirmation.
    """

    def __init__(self, series_id: str, t0: float, rate_hz: float, config: EventConfig):
        _check_rate(rate_hz)
        if not math.isfinite(t0):
            raise GaitInputError(f"{series_id}: start time must be finite, got {t0}")
        self.series_id = series_id
        self.t0 = t0
        self.rate_hz = rate_hz
        self.config = config
        # Doubles, so the kernel reads the series in place as a buffer.
        self.values = array("d")
        self._i = 0  # next derivative index to process
        self._d_prev = 0.0  # read only once _i > 0
        self.pending = -1  # index of the trough awaiting confirmation, or -1
        self.run_max = -math.inf
        self.last_accept_t = -math.inf  # so the first trough clears the refractory test

    @property
    def frontier_t(self) -> float:
        """No event earlier than this can still be emitted."""
        index = self.pending
        if index < 0:  # the last derivative processed, or 0 before the first
            index = self._i - 1 if self._i > 0 else 0
        return self.t0 + index / self.rate_hz

    def extend_series(self, values: ArrayLike) -> None:
        values = np.asarray(values, dtype=_F64)
        if values.ndim != 1:
            raise GaitInputError(
                f"{self.series_id}: a series is one channel, got values of shape {values.shape}"
            )
        self.values.frombytes(values.tobytes())

    def feed_derivative(self, d_values: ArrayLike) -> list[MinimumEvent]:
        """Process derivatives in order; returns the minima they confirm.

        Derivatives that are not 1-D raise GaitInputError and leave the state
        untouched. A derivative whose index outruns the series raises it and
        leaves the state of the derivatives processed before it. Every feed
        runs `_kernel.loops().minima`: the same events and state in C and in
        Python.
        """
        # Not np.ascontiguousarray, which reads a scalar as one derivative.
        d = np.asarray(d_values, dtype=_F64, order="C")
        if d.ndim != 1:
            raise GaitInputError(f"{self.series_id}: derivatives are one channel, got {d.shape}")
        config = self.config
        (
            self._i, self._d_prev, self.pending, self.run_max, self.last_accept_t, found, outrun
        ) = _kernel.loops().minima(
            self.values, d, self._i, self._d_prev, self.pending, self.run_max,
            self.last_accept_t, config.prominence_deg, config.refractory_s, self.t0,
            self.rate_hz,
        )
        if outrun:
            raise GaitInputError(
                f"{self.series_id}: derivative index {self._i - 1} outruns series of "
                f"{len(self.values)} samples"
            )
        if not found:  # most live feeds: skip the comprehension's frame
            return found
        # MinimumEvent(series_id, j, t, v), without the Python frame of its
        # __new__: a whole series yields dozens of events.
        series_id = self.series_id
        return [_tuple_new(MinimumEvent, (series_id, j, t, v)) for j, t, v in found]

    def finalize(self) -> list[MinimumEvent]:
        # An unconfirmed trough at stream end never cleared prominence.
        self.pending = -1
        return []


def detect_minima(
    series: UniformSeries, series_id: str = "series", config: EventConfig | None = None
) -> list[MinimumEvent]:
    """Batch minima detection on one series, with `config`'s refractory and prominence."""
    det = MinimaDetector(series_id, series.t0, series.rate_hz, config or EventConfig())
    det.extend_series(series.values)
    events = det.feed_derivative(five_point_derivative(series).values)
    events += det.finalize()
    return events


@dataclass
class AngleQuad:
    """The four synchronized 25 Hz angle series feeding segmentation."""

    knee_l: UniformSeries
    knee_r: UniformSeries
    hip_l: UniformSeries
    hip_r: UniformSeries

    def __post_init__(self):
        rates = {
            round(s.rate_hz, 9)
            for s in (self.knee_l, self.knee_r, self.hip_l, self.hip_r)
        }
        if len(rates) != 1:
            raise GaitInputError(f"angle series rates differ: {sorted(rates)}")
        half_period = 0.5 / self.knee_l.rate_hz
        t0s = [s.t0 for s in (self.knee_l, self.knee_r, self.hip_l, self.hip_r)]
        if not np.ptp(t0s) <= half_period:  # a NaN start time fails too
            raise GaitInputError(
                f"angle series start times {t0s} spread more than half a sample "
                f"period"
            )

    def series(self, name: str) -> UniformSeries:
        return {
            "knee_L": self.knee_l,
            "knee_R": self.knee_r,
            "hip_L": self.hip_l,
            "hip_R": self.hip_r,
        }[name]


# The diagnostics' messages, indexed by the code of the diagnostic tuples
# that the kernel's `segment` returns (its DIAG_* codes, in this order), and
# filled with the values each tuple holds after its code; the last is
# `StepSegmenter.finalize`'s own.
_DIAGNOSTICS = (
    "discarded front event ({} at {:.3f} s): no back-limb hip minimum within {} s",
    "discarded front event ({} at {:.3f} s): front knee minimum on {} arrived first",
    "ignored same-side hip minimum ({} at {:.3f} s) while awaiting the back limb",
    "ignored hip minimum ({} at {:.3f} s) not after the front event",
    "discarded front event ({} at {:.3f} s): front side did not alternate",
    "discarded front event ({} at {:.3f} s): stream ended before the back-limb hip minimum",
)
_STREAM_ENDED = 5

# The state of a segmenter that has seen no event: nothing pending, no
# front side yet, no step.
_SEGMENTER_START = (False, 0, 0.0, 0.0, 0.0, -1, 0)


def _check_buffers(sampler) -> None:
    """Raise GaitInputError unless `sampler` is four `(values, t0, rate)` whose
    values are C-contiguous buffers of native float64: the kernel reads any
    buffer's bytes as doubles. Each view is released at once, so a live
    detector's `array("d")` can still grow."""
    if not (isinstance(sampler, tuple) and len(sampler) == 4):
        raise GaitInputError(f"the segmenter needs a callable or four series, got {sampler!r:.50}")
    for name, entry in zip(_TIE_ORDER, sampler):
        try:
            values, _, _ = entry
            with memoryview(values) as view:
                if view.format == "d" and view.c_contiguous:
                    continue
        except (TypeError, ValueError):
            pass
        raise GaitInputError(f"{name}: values must be a C-contiguous buffer of native float64")


def _steps(rows) -> list[StepMeasurement]:
    """The steps, lengths unset, of the kernel's `segment` rows."""
    # Positional arguments: a frozen dataclass matches keywords slowly.
    return [
        StepMeasurement(k, side, EventAngles(alpha_f, beta_f, alpha_b, beta_b), t_front, t_back)
        for k, side, alpha_f, beta_f, alpha_b, beta_b, t_front, t_back in rows
    ]


class StepSegmenter:
    """State machine turning merged minimum events into steps.

    Phase alternates between awaiting a front knee minimum and awaiting the
    other leg's hip minimum. The paired angle of each event is read through
    the sampler: the four series as a tuple of `(values, t0, rate)` in
    `_kernel.SEGMENT_SERIES` order (`_check_buffers`), or a callable
    `sampler(series_id, t)`. Steps whose back event does not arrive within
    the timeout are discarded with a diagnostic, as are repeated same-side
    detections.

    The rule is the kernel's `segment` loop (`_kernel.loops().segment`, in C
    or in Python; `_kernel.PYTHON.segment` for a callable sampler), which
    takes the state as plain numbers and gives each diagnostic as a code;
    the segmenter holds that state and formats the diagnostics through
    `_DIAGNOSTICS` into `diagnostics`.
    """

    def __init__(
        self,
        config: EventConfig,
        sampler: Callable[[str, float], float] | tuple,
        diagnostics: list[str] | None = None,
    ):
        if not callable(sampler):
            _check_buffers(sampler)
        self.config = config
        self.sampler = sampler
        self.diagnostics = diagnostics if diagnostics is not None else []
        self._state = _SEGMENTER_START

    @property
    def pending(self) -> tuple[Side, float, float, float] | None:
        """The front event awaiting its back event, as (side, t, beta_f, alpha_f), or None."""
        pending, side, t, beta_f, alpha_f, _, _ = self._state
        return (_kernel.SEGMENT_SIDES[side], t, beta_f, alpha_f) if pending else None

    @property
    def last_front_side(self) -> Side | None:
        last_front = self._state[5]
        return _kernel.SEGMENT_SIDES[last_front] if last_front >= 0 else None

    @property
    def count(self) -> int:
        return self._state[6]

    def run(self, events: list[MinimumEvent]) -> list[tuple]:
        """Process events in `sort_key` order; returns the rows of the steps they complete.

        One call of the kernel's `segment` over the list. Its diagnostics
        are appended to `diagnostics`; `_steps` builds the rows' steps.
        """
        loops = _kernel.PYTHON if callable(self.sampler) else _kernel.loops()
        self._state, rows, diags = loops.segment(
            events, self.sampler, self._state, self.config.back_event_timeout_s
        )
        if diags:
            self.diagnostics.extend(_DIAGNOSTICS[code].format(*values) for code, *values in diags)
        return rows

    def process(self, ev: MinimumEvent) -> StepMeasurement | None:
        rows = self.run([ev])
        return _steps(rows)[0] if rows else None

    def finalize(self) -> None:
        pending, side, t, *rest = self._state
        if pending:
            side_name = _kernel.SEGMENT_SIDES[side]
            self.diagnostics.append(_DIAGNOSTICS[_STREAM_ENDED].format(side_name, t))
            self._state = (False, side, t, *rest)


def segment_steps(
    quad: AngleQuad,
    config: EventConfig | None = None,
    diagnostics: list[str] | None = None,
) -> list[StepMeasurement]:
    """Batch segmentation of an angle quad into steps (lengths unset).

    One `config` (the defaults when None) sets the detector's refractory
    and prominence on every series and the segmenter's back-event timeout.
    The sorted events go to the segmenter in one `run`, which reads the
    paired angles from the quad's four series in place.
    """
    config = config or EventConfig()
    events: list[MinimumEvent] = []
    for name in _TIE_ORDER:
        events.extend(detect_minima(quad.series(name), name, config))
    events.sort(key=_event_t)

    buffers = tuple(
        (np.asarray(s.values, dtype=np.float64, order="C"), float(s.t0), float(s.rate_hz))
        for s in map(quad.series, _TIE_ORDER)
    )
    segmenter = StepSegmenter(config, buffers, diagnostics)
    steps = _steps(segmenter.run(events))
    segmenter.finalize()
    return steps
