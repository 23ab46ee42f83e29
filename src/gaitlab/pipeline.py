"""The whole chain over one two-leg recording, at once or chunk by chunk.

The one place that composes the stages. Per leg: offsets from the standing
windows (`signal.compute_offsets`), then `signal.apply_offsets`,
`orientation.remap_mounting` of accel and gyro and
`orientation.madgwick_batch` to the 250 Hz hip angle, and
`signal.downsample_smooth` of the hip (M = 10) and of the 100 Hz knee angle
(M = 4) to the four 25 Hz series. Then steps (`events`), their lengths
(`core.attach_lengths`), strides and asymmetry (`core`).

- `analyze` runs each stage once over the whole recording and segments the
  four series with `events.segment_steps`.
- `StreamingAnalyzer` takes the same recording in chunks through the
  incremental APIs: a growing buffer per series that `signal.smoothed_block`
  decimates, a `DerivativeStream` and a `MinimaDetector` per series, and one
  `StepSegmenter`. Minimum events are released to the segmenter in
  `MinimumEvent.sort_key` order, and only once they are earlier than every
  detector's frontier, so no event still to come can sort before them.
  Steps, strides and asymmetry are emitted as soon as they are confirmed; a
  stride is confirmed by the front event of the step after it, or by the
  end of the stream.

The two are independent compositions of the same stages and give the same
bits: `StreamingAnalyzer(legs, params).finish(t) == analyze(legs, params)`.

`legs` maps "L" and "R" to objects with `standing_imu`, `standing_bend`
(the standing windows), `imu`, `bend` (the walking streams) and
`mounting_axis`. The analyzer reads only the standing windows, the mount
and the walking streams' first timestamps from them; the samples come in
the chunks.

Every stage call goes through the probe, `probe.call(name, fn, *args)`,
under the name `<module>.<call>` ("signal.apply_offsets", ...), and sample
counts through `probe.count(name, n)`. `NULL_PROBE` calls straight through.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import attach_lengths, gait_asymmetry, stride_metrics
from .errors import GaitInputError
from .events import (
    AngleQuad,
    DerivativeStream,
    EventConfig,
    MinimaDetector,
    StepSegmenter,
    segment_steps,
)
from .orientation import filter_init, madgwick_batch, remap_mounting
from .signal import (
    UniformSeries,
    apply_offsets,
    compute_offsets,
    downsample_smooth,
    smoothed_block,
    smoothed_t0,
)

IMU_HZ = 250.0
BEND_HZ = 100.0
M_IMU = 10  # 250 Hz -> 25 Hz
M_BEND = 4  # 100 Hz -> 25 Hz
SERIES_HZ = IMU_HZ / M_IMU
DT = 1.0 / IMU_HZ


class _NullProbe:
    """Calls straight through and counts nothing."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


NULL_PROBE = _NullProbe()


@dataclass
class Analysis:
    """One recording's steps, strides, asymmetry and diagnostics.

    `quad`, the four 25 Hz series, is kept by `analyze` only and takes no
    part in `==`.
    """

    steps: list
    strides: list
    asymmetry: list
    diagnostics: list[str]
    quad: AngleQuad | None = field(default=None, compare=False)


def analyze(legs, params, probe=NULL_PROBE) -> Analysis:
    """offsets -> remap -> Madgwick -> downsample-smooth -> segment -> lengths
    -> strides -> asymmetry, each stage over the whole recording."""
    hips, knees = {}, {}
    for side, leg in legs.items():
        offsets = probe.call(
            "signal.compute_offsets", compute_offsets, leg.standing_imu, leg.standing_bend
        )
        imu, bend = probe.call("signal.apply_offsets", apply_offsets, leg.imu, leg.bend, offsets)
        accel = probe.call(
            "orientation.remap_mounting", remap_mounting, imu.accel, leg.mounting_axis
        )
        gyro = probe.call("orientation.remap_mounting", remap_mounting, imu.gyro, leg.mounting_axis)
        state = probe.call("orientation.filter_init", filter_init)
        hip, _ = probe.call("orientation.madgwick_batch", madgwick_batch, accel, gyro, DT, state)
        probe.count("orientation.imu_samples", len(accel))
        hips[side] = probe.call(
            "signal.downsample_smooth", downsample_smooth, hip, M_IMU, IMU_HZ, float(imu.t[0])
        )
        knees[side] = probe.call(
            "signal.downsample_smooth", downsample_smooth,
            bend.angle_deg, M_BEND, BEND_HZ, float(bend.t[0]),
        )
        probe.count("signal.samples_in", len(hip) + len(bend))
        probe.count("signal.samples_out", len(hips[side]) + len(knees[side]))
    quad = probe.call("events.AngleQuad", AngleQuad, knees["L"], knees["R"], hips["L"], hips["R"])
    diagnostics: list[str] = []
    steps = probe.call("events.segment_steps", segment_steps, quad, None, diagnostics)
    steps = probe.call("events.attach_lengths", attach_lengths, steps, params)
    strides = probe.call("core.stride_metrics", stride_metrics, steps)
    asymmetry = [probe.call("core.gait_asymmetry", gait_asymmetry, s) for s in strides]
    return Analysis(steps, strides, asymmetry, diagnostics, quad)


class _Growable:
    """Append-only float buffer with amortised growth."""

    def __init__(self):
        self.data = np.empty(1024)
        self.n = 0

    def extend(self, values: np.ndarray) -> None:
        need = self.n + len(values)
        if need > len(self.data):
            grown = np.empty(max(need, 2 * len(self.data)))
            grown[: self.n] = self.data[: self.n]
            self.data = grown
        self.data[self.n : need] = values
        self.n = need

    def view(self) -> np.ndarray:
        return self.data[: self.n]


@dataclass
class _LiveLeg:
    offsets: object
    mounting_axis: str
    state: object  # orientation filter state carried between chunks


@dataclass
class _LiveSeries:
    raw: _Growable  # unsmoothed samples at the native rate
    m: int
    done: int  # smoothed outputs produced so far
    derivative: DerivativeStream
    detector: MinimaDetector


class StreamingAnalyzer:
    """Feeds one recording chunk by chunk through the incremental APIs.

    `feed(chunk_legs, end_t)` takes one chunk: `chunk_legs` maps a side to
    its `(ImuStream, BendStream)` samples, and `end_t` is the chunk's end
    time, recorded in `emitted_at` for each step the chunk confirms.
    `finish(end_t)` ends the stream and returns the `Analysis`; a `feed` or
    a second `finish` after it raises `GaitInputError` and changes nothing.
    `steps`, `strides` and `asymmetry` grow as they are confirmed; `series`
    holds each 25 Hz series' decimator, derivative and detector by name.
    """

    def __init__(self, legs, params, probe=NULL_PROBE):
        self.probe = probe
        self.params = params
        self.config = EventConfig()  # the batch chain's segment_steps default
        self.legs: dict[str, _LiveLeg] = {}
        self.series: dict[str, _LiveSeries] = {}
        for side, leg in legs.items():
            offsets = probe.call(
                "signal.compute_offsets", compute_offsets, leg.standing_imu, leg.standing_bend
            )
            self.legs[side] = _LiveLeg(
                offsets, leg.mounting_axis, probe.call("orientation.filter_init", filter_init)
            )
            for kind, m, rate, t0 in (
                ("hip", M_IMU, IMU_HZ, float(leg.imu.t[0])),
                ("knee", M_BEND, BEND_HZ, float(leg.bend.t[0])),
            ):
                name = f"{kind}_{side}"
                self.series[name] = _LiveSeries(
                    _Growable(), m, 0, DerivativeStream(SERIES_HZ),
                    MinimaDetector(name, smoothed_t0(t0, m, rate), SERIES_HZ, self.config),
                )
        self.diagnostics: list[str] = []
        # The sampler closes over the series only, not the analyzer, so a
        # finished analyzer is freed at once rather than by the cycle collector.
        series = self.series

        def sample(series_id: str, t: float) -> float:
            det = series[series_id].detector
            grid = UniformSeries(det.t0, det.rate_hz, det.values)
            return float(det.values[grid.index_near(t)])

        self.segmenter = StepSegmenter(self.config, sample, self.diagnostics)
        self._heap: list = []
        self._seq = 0
        self.steps: list = []
        self.emitted_at: list[float] = []  # chunk end time that emitted each step
        self.strides: list = []
        self.asymmetry: list = []
        self._finished = False

    def _check_open(self, call: str) -> None:
        if self._finished:
            raise GaitInputError(f"StreamingAnalyzer.{call} called after finish")

    def _push(self, events) -> None:
        for ev in events:
            heapq.heappush(self._heap, (ev.sort_key(), self._seq, ev))
            self._seq += 1

    def _smooth(self, name: str) -> None:
        probe = self.probe
        s = self.series[name]
        n = s.raw.n
        k_stop = (n - 2 * s.m) // s.m + 1 if n >= 2 * s.m else 0
        if k_stop <= s.done:
            return
        out = probe.call("signal.smoothed_block", smoothed_block, s.raw.view(), s.m, s.done, k_stop)
        probe.count("signal.samples_out", len(out))
        s.done = k_stop
        det = s.detector
        probe.call("events.MinimaDetector.extend_series", det.extend_series, out)
        d = probe.call("events.DerivativeStream.feed", s.derivative.feed, out)
        self._push(probe.call("events.MinimaDetector.feed_derivative", det.feed_derivative, d))

    def feed(self, chunk_legs, end_t: float) -> None:
        self._check_open("feed")
        probe = self.probe
        for side, (imu, bend) in chunk_legs.items():
            leg = self.legs[side]
            imu, bend = probe.call("signal.apply_offsets", apply_offsets, imu, bend, leg.offsets)
            mount = leg.mounting_axis
            accel = probe.call("orientation.remap_mounting", remap_mounting, imu.accel, mount)
            gyro = probe.call("orientation.remap_mounting", remap_mounting, imu.gyro, mount)
            hip, leg.state = probe.call(
                "orientation.madgwick_batch", madgwick_batch, accel, gyro, DT, leg.state
            )
            probe.count("orientation.imu_samples", len(accel))
            probe.count("signal.samples_in", len(hip) + len(bend))
            self.series[f"hip_{side}"].raw.extend(hip)
            self.series[f"knee_{side}"].raw.extend(bend.angle_deg)
            self._smooth(f"hip_{side}")
            self._smooth(f"knee_{side}")
        self._release(min(s.detector.frontier_t for s in self.series.values()), end_t)

    def finish(self, end_t: float) -> Analysis:
        self._check_open("finish")
        self._finished = True
        probe = self.probe
        for s in self.series.values():
            d = probe.call("events.DerivativeStream.finalize", s.derivative.finalize)
            det = s.detector
            self._push(probe.call("events.MinimaDetector.feed_derivative", det.feed_derivative, d))
            self._push(probe.call("events.MinimaDetector.finalize", det.finalize))
        self._release(math.inf, end_t)
        probe.call("events.StepSegmenter.finalize", self.segmenter.finalize)
        n = len(self.steps)
        if n >= 2 and len(self.strides) < n // 2:
            self._emit_stride(n // 2 - 1, self.steps[: 2 * (n // 2)])
        return Analysis(self.steps, self.strides, self.asymmetry, self.diagnostics)

    def _release(self, frontier: float, now_t: float) -> None:
        probe = self.probe
        heap = self._heap
        while heap and heap[0][2].t < frontier:
            ev = heapq.heappop(heap)[2]
            step = probe.call("events.StepSegmenter.process", self.segmenter.process, ev)
            if step is None:
                continue
            step = probe.call("events.attach_lengths", attach_lengths, [step], self.params)[0]
            self.steps.append(step)
            self.emitted_at.append(now_t)
            n = len(self.steps)
            if n >= 3 and n % 2 == 1:
                # Step 2i+2 fixes the time of stride i.
                i = (n - 3) // 2
                self._emit_stride(i, self.steps)

    def _emit_stride(self, i: int, steps: list) -> None:
        probe = self.probe
        # The velocity window spans at most five strides, so stride i needs
        # only the steps from stride i-4 on (plus the next step, if known).
        lo = 2 * max(0, i - 4)
        window = probe.call("core.stride_metrics", stride_metrics, steps[lo : 2 * i + 3])
        stride = replace(window[-1], index=i)
        self.strides.append(stride)
        self.asymmetry.append(probe.call("core.gait_asymmetry", gait_asymmetry, stride))
