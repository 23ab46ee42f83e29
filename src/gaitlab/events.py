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
a whole series at once and produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np
from numpy.typing import ArrayLike

from .core import EventAngles, Side, StepMeasurement, attach_lengths  # noqa: F401  (re-exported)
from .errors import GaitInputError
from .signal import UniformSeries

SeriesKind = Literal["knee", "hip"]

DEFAULT_REFRACTORY_S = 0.3
DEFAULT_PROMINENCE_DEG = 1.0
DEFAULT_BACK_EVENT_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class MinimumEvent:
    """A confirmed local minimum on one angle series."""

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
        # next one.
        return (self.t, 0 if self.side == "L" else 1, 0 if self.kind == "hip" else 1)


@dataclass
class EventConfig:
    refractory_s: float = DEFAULT_REFRACTORY_S
    prominence_deg: float = DEFAULT_PROMINENCE_DEG
    back_event_timeout_s: float = DEFAULT_BACK_EVENT_TIMEOUT_S

    def __post_init__(self):
        if self.refractory_s < 0:
            raise GaitInputError("refractory must be >= 0")
        if self.prominence_deg < 0:
            raise GaitInputError("prominence must be >= 0")
        if self.back_event_timeout_s <= 0:
            raise GaitInputError("back-event timeout must be > 0")


class DerivativeStream:
    """Incremental five-point derivative of a uniform series.

    Interior samples use the exact stencil

        d[k] = (s[k-2] - 8 s[k-1] + 8 s[k+1] - s[k+2]) / (12 h)

    which is exact for cubics. The first two and last two samples fall back
    to one-sided/short differences and are approximate; the final two can
    only be emitted once the stream ends.
    """

    def __init__(self, rate_hz: float):
        self.h = 1.0 / rate_hz
        self.values: list[float] = []
        self.emitted = 0
        self.finalized = False

    def feed(self, new_values: ArrayLike) -> np.ndarray:
        self.values.extend(np.asarray(new_values, dtype=np.float64).tolist())
        s = self.values
        n = len(s)
        h = self.h
        head = None
        if self.emitted == 0 and n >= 3:
            head = [(-3.0 * s[0] + 4.0 * s[1] - s[2]) / (2.0 * h), (s[2] - s[0]) / (2.0 * h)]
            self.emitted = 2
        lo, hi = self.emitted, n - 2  # emit interior indices [lo, hi)
        if lo >= 2 and hi > lo:
            arr = np.asarray(s[lo - 2 : hi + 2])
            d = (
                arr[: hi - lo]
                - 8.0 * arr[1 : hi - lo + 1]
                + 8.0 * arr[3 : hi - lo + 3]
                - arr[4 : hi - lo + 4]
            ) / (12.0 * h)
            self.emitted = hi
        else:
            d = np.empty(0)
        return d if head is None else np.concatenate([head, d])

    def finalize(self) -> np.ndarray:
        if self.finalized:
            return np.asarray([])
        self.finalized = True
        s = self.values
        n = len(s)
        if n < 5:
            raise GaitInputError(f"five-point derivative needs >= 5 samples, got {n}")
        h = self.h
        out = []
        if self.emitted == n - 2:
            out.append((s[n - 1] - s[n - 3]) / (2.0 * h))
            out.append((3.0 * s[n - 1] - 4.0 * s[n - 2] + s[n - 3]) / (2.0 * h))
            self.emitted = n
        return np.asarray(out)


def five_point_derivative(series: UniformSeries) -> UniformSeries:
    """Batch five-point derivative; same length and timestamps as the input."""
    stream = DerivativeStream(series.rate_hz)
    head = stream.feed(np.asarray(series.values, dtype=float))
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
        self.series_id = series_id
        self.t0 = t0
        self.rate_hz = rate_hz
        self.config = config
        self.values: list[float] = []
        self._d_prev: float | None = None
        self._i = 0  # next derivative index to process
        self.run_max = -np.inf
        self.pending: int | None = None
        self.last_accept_t: float | None = None

    def time_at(self, index: int) -> float:
        return self.t0 + index / self.rate_hz

    @property
    def frontier_t(self) -> float:
        """No event earlier than this can still be emitted."""
        if self.pending is not None:
            return self.time_at(self.pending)
        return self.time_at(max(self._i - 1, 0))

    def extend_series(self, values: ArrayLike) -> None:
        self.values.extend(np.asarray(values, dtype=np.float64).tolist())

    def feed_derivative(self, d_values: Iterable[float]) -> list[MinimumEvent]:
        events: list[MinimumEvent] = []
        s = self.values
        prominence = self.config.prominence_deg
        refractory = self.config.refractory_s
        for d in d_values:
            i = self._i
            d_prev = self._d_prev
            self._d_prev = float(d)
            self._i = i + 1
            if i == 0 or d_prev is None:
                continue
            if i >= len(s):
                raise GaitInputError(
                    f"{self.series_id}: derivative index {i} outruns series "
                    f"of {len(s)} samples"
                )
            if self.pending is None:
                if s[i - 1] > self.run_max:
                    self.run_max = s[i - 1]
                if d > 0.0 and d_prev <= 0.0:
                    j = i - 1 if s[i - 1] <= s[i] else i
                    t_j = self.time_at(j)
                    if (
                        self.last_accept_t is None
                        or t_j - self.last_accept_t >= refractory
                    ) and self.run_max - s[j] >= prominence:
                        self.pending = j
            else:
                j = self.pending
                if s[i] < s[j]:
                    self.pending = i
                elif s[i] - s[j] >= prominence:
                    self.last_accept_t = self.time_at(j)
                    events.append(
                        MinimumEvent(
                            series=self.series_id,
                            index=j,
                            t=self.last_accept_t,
                            value=s[j],
                        )
                    )
                    self.pending = None
                    self.run_max = s[i]
        return events

    def finalize(self) -> list[MinimumEvent]:
        # An unconfirmed trough at stream end never cleared prominence.
        self.pending = None
        return []


def detect_minima(
    series: UniformSeries,
    refractory_s: float = DEFAULT_REFRACTORY_S,
    prominence_deg: float = DEFAULT_PROMINENCE_DEG,
    series_id: str = "series",
) -> list[MinimumEvent]:
    """Batch minima detection on one series."""
    config = EventConfig(refractory_s=refractory_s, prominence_deg=prominence_deg)
    det = MinimaDetector(series_id, series.t0, series.rate_hz, config)
    det.extend_series(np.asarray(series.values, dtype=float))
    stream = DerivativeStream(series.rate_hz)
    events = det.feed_derivative(stream.feed(det.values))
    events += det.feed_derivative(stream.finalize())
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
        if max(t0s) - min(t0s) > half_period:
            raise GaitInputError(
                f"angle series misaligned by {max(t0s) - min(t0s):.4f} s "
                f"(more than half a sample period)"
            )

    def series(self, name: str) -> UniformSeries:
        return {
            "knee_L": self.knee_l,
            "knee_R": self.knee_r,
            "hip_L": self.hip_l,
            "hip_R": self.hip_r,
        }[name]


@dataclass
class _PendingFront:
    side: Side
    t: float
    beta_f: float
    alpha_f: float


class StepSegmenter:
    """State machine turning merged minimum events into steps.

    Phase alternates between awaiting a front knee minimum and awaiting the
    other leg's hip minimum. The paired angle of each event is read through
    `sampler(series_id, t)`. Steps whose back event does not arrive within
    the timeout are discarded with a diagnostic, as are repeated same-side
    detections.
    """

    def __init__(
        self,
        config: EventConfig,
        sampler: Callable[[str, float], float],
        diagnostics: list[str] | None = None,
    ):
        self.config = config
        self.sampler = sampler
        self.diagnostics = diagnostics if diagnostics is not None else []
        self.pending: _PendingFront | None = None
        self.last_front_side: Side | None = None
        self.count = 0

    def _discard(self, reason: str) -> None:
        p = self.pending
        self.diagnostics.append(
            f"discarded front event ({p.side} at {p.t:.3f} s): {reason}"
        )
        self.pending = None

    def _open_front(self, ev: MinimumEvent) -> None:
        alpha_f = self.sampler(f"hip_{ev.side}", ev.t)
        self.pending = _PendingFront(
            side=ev.side, t=ev.t, beta_f=ev.value, alpha_f=alpha_f
        )

    def process(self, ev: MinimumEvent) -> StepMeasurement | None:
        if (
            self.pending is not None
            and ev.t - self.pending.t > self.config.back_event_timeout_s
        ):
            self._discard(
                f"no back-limb hip minimum within "
                f"{self.config.back_event_timeout_s} s"
            )
        if ev.kind == "knee":
            if self.pending is not None:
                self._discard(f"front knee minimum on {ev.side} arrived first")
            self._open_front(ev)
            return None
        # hip minimum
        if self.pending is None:
            return None
        if ev.side == self.pending.side:
            self.diagnostics.append(
                f"ignored same-side hip minimum ({ev.side} at {ev.t:.3f} s) "
                f"while awaiting the back limb"
            )
            return None
        if ev.t <= self.pending.t:
            self.diagnostics.append(
                f"ignored hip minimum ({ev.side} at {ev.t:.3f} s) not after "
                f"the front event"
            )
            return None
        if self.last_front_side is not None and self.pending.side == self.last_front_side:
            self._discard("front side did not alternate")
            self.last_front_side = None  # allow the stream to resync
            return None
        beta_b = self.sampler(f"knee_{ev.side}", ev.t)
        step = StepMeasurement(
            index=self.count,
            front_side=self.pending.side,
            angles=EventAngles(
                alpha_f=self.pending.alpha_f,
                beta_f=self.pending.beta_f,
                alpha_b=ev.value,
                beta_b=beta_b,
            ),
            t_front_event=self.pending.t,
            t_back_event=ev.t,
        )
        self.count += 1
        self.last_front_side = self.pending.side
        self.pending = None
        return step

    def finalize(self) -> None:
        if self.pending is not None:
            self._discard("stream ended before the back-limb hip minimum")


def segment_steps(
    quad: AngleQuad,
    config: EventConfig | None = None,
    diagnostics: list[str] | None = None,
) -> list[StepMeasurement]:
    """Batch segmentation of an angle quad into steps (lengths unset)."""
    config = config or EventConfig()

    def sampler(series_id: str, t: float) -> float:
        s = quad.series(series_id)
        return float(s.values[s.index_near(t)])

    events: list[MinimumEvent] = []
    for name in ("knee_L", "knee_R", "hip_L", "hip_R"):
        s = quad.series(name)
        events.extend(
            detect_minima(
                s, config.refractory_s, config.prominence_deg, series_id=name
            )
        )
    events.sort(key=MinimumEvent.sort_key)

    segmenter = StepSegmenter(config, sampler, diagnostics)
    steps = [out for ev in events if (out := segmenter.process(ev)) is not None]
    segmenter.finalize()
    return steps

