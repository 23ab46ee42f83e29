"""The whole chain over one two-leg recording, in one composition.

`StreamingAnalyzer` takes the recording chunk by chunk. Per leg: offsets
from the standing windows (`signal.compute_offsets`); per chunk,
`signal.apply_offsets`, `orientation.remap_mounting` of accel and gyro and
`orientation.madgwick_batch` to the 250 Hz hip angle, the filter state
carried between chunks. `signal.smoothed_block` decimates the hip (M = 10)
and the 100 Hz knee angle (M = 4) to the four 25 Hz series; per series the
analyzer holds the raw samples from the next 25 Hz window's start on (fewer
than 2M once a chunk is decimated), a `DerivativeStream`, a
`MinimaDetector` and the minima not yet released. A minimum is released
once it is earlier than every detector's frontier, so no event still to
come can sort before it. Each feed releases in one batch: one
`StepSegmenter.run`, which reads the paired angles from the detectors'
series in place, over the events in `MinimumEvent.sort_key` order; one
`core.attach_lengths` over the steps they complete; one
`core.StridePairer.add` of those steps, which returns the strides they
confirm. The pairer's rule makes the strides, in runs of alternating
steps: a stride is confirmed by the front event of the step after it, or
by the end of its run, which a step with the previous step's front side or
the end of the stream marks. So a lost step costs the stride it falls in,
not the recording; the segmenter's "front side did not alternate" line
marks the break.

`analyze` is the analyzer fed each leg's whole streams as one chunk and
finished, with the four 25 Hz series kept as `Analysis.quad`. So a
recording gives the same bits however it is chunked:
`StreamingAnalyzer(legs, params)`, fed and finished, `== analyze(legs,
params)`. A recording with fewer than two steps gives those steps and no
stride.

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

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ._kernel import SEGMENT_SERIES
from .core import StridePairer, attach_lengths, gait_asymmetry
from .errors import GaitInputError
from .events import (
    AngleQuad,
    DerivativeStream,
    EventConfig,
    MinimaDetector,
    StepSegmenter,
    _event_t,
    _steps,
)
from .orientation import filter_init, madgwick_batch, remap_mounting
from .signal import UniformSeries, apply_offsets, compute_offsets, smoothed_block, smoothed_t0

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

    `quad`, the four 25 Hz series as the detectors hold them at the end
    (`signal.downsample_smooth`'s values and start times for the whole
    streams), is kept by `analyze` only and takes no part in `==`.
    """

    steps: list
    strides: list
    asymmetry: list
    diagnostics: list[str]
    quad: AngleQuad | None = field(default=None, compare=False)


def analyze(legs, params, probe=NULL_PROBE) -> Analysis:
    """The recording through `StreamingAnalyzer`: each leg's whole streams in
    one feed, then `finish`; the detectors' 25 Hz series become `quad`."""
    analyzer = StreamingAnalyzer(legs, params, probe)
    # The one chunk ends after the recording; no caller sees `emitted_at`.
    analyzer.feed({side: (leg.imu, leg.bend) for side, leg in legs.items()}, math.inf)
    result = analyzer.finish(math.inf)
    dets = [analyzer.series[name].detector for name in ("knee_L", "knee_R", "hip_L", "hip_R")]
    series = [UniformSeries(d.t0, d.rate_hz, np.frombuffer(d.values)) for d in dets]
    result.quad = probe.call("events.AngleQuad", AngleQuad, *series)
    return result


@dataclass
class _LiveLeg:
    offsets: object
    mounting_axis: str
    state: object  # orientation filter state carried between chunks


@dataclass
class _LiveSeries:
    raw: np.ndarray  # the native-rate samples from the next window's start on
    m: int
    derivative: DerivativeStream
    detector: MinimaDetector
    pending: list = field(default_factory=list)  # the detector's minima not yet released


class StreamingAnalyzer:
    """Feeds one recording chunk by chunk through the incremental APIs.

    `feed(chunk_legs, end_t)` takes one chunk: `chunk_legs` maps a side to
    its `(ImuStream, BendStream)` samples, and `end_t` is the chunk's end
    time, recorded in `emitted_at` for each step the chunk confirms.
    `finish(end_t)` ends the stream and returns the `Analysis`; a `feed` or
    a second `finish` after it raises `GaitInputError` and changes nothing.
    `steps`, `strides` and `asymmetry` grow as they are confirmed; `series`
    holds each 25 Hz series' decimator, derivative, detector and pending
    minima by name.
    """

    def __init__(self, legs, params, probe=NULL_PROBE):
        self.probe = probe
        self.params = params
        self.config = EventConfig()  # the batch chain's segment_steps default
        self.legs: dict[str, _LiveLeg] = {}
        self.series: dict[str, _LiveSeries] = {}
        if legs.keys() != {"L", "R"}:
            raise GaitInputError(f"legs must map sides L and R only, got {list(legs)}")
        for side, leg in legs.items():
            for stream in ("imu", "bend"):
                if not len(getattr(leg, stream).t):
                    raise GaitInputError(f"leg {side}: walking {stream} stream holds no sample")
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
                    np.empty(0), m, DerivativeStream(SERIES_HZ),
                    MinimaDetector(name, smoothed_t0(t0, m, rate), SERIES_HZ, self.config),
                )
        self.diagnostics: list[str] = []
        # In `sort_key`'s tie order, which is also the order in which the
        # segmenter reads the detectors' series in place.
        self._tie_order = [self.series[name] for name in SEGMENT_SERIES]
        buffers = tuple(
            (s.detector.values, s.detector.t0, s.detector.rate_hz) for s in self._tie_order
        )
        self.segmenter = StepSegmenter(self.config, buffers, self.diagnostics)
        self.pairer = StridePairer()
        self.steps: list = []
        self.emitted_at: list[float] = []  # chunk end time that emitted each step
        self.strides: list = []
        self.asymmetry: list = []
        self._finished = False

    def _check_open(self, call: str) -> None:
        if self._finished:
            raise GaitInputError(f"StreamingAnalyzer.{call} called after finish")

    def _smooth(self, name: str, samples: np.ndarray) -> None:
        """Append samples to the series' raw tail and decimate every window it completes.

        Output k of the series averages raw samples [k M, k M + 2M). The tail
        starts at the next output's window, so the windows are the ones
        `downsample_smooth` sums over the whole recording, in the same order.
        An empty tail takes the samples as they are, with no copy: they are
        a stage's own fresh output.
        """
        probe = self.probe
        s = self.series[name]
        m = s.m
        raw = s.raw = np.concatenate((s.raw, samples)) if len(s.raw) else samples
        if len(raw) < 2 * m:
            return
        k_stop = (len(raw) - 2 * m) // m + 1
        out = probe.call("signal.smoothed_block", smoothed_block, raw, m, 0, k_stop)
        probe.count("signal.samples_out", len(out))
        s.raw = raw[m * k_stop :]
        det = s.detector
        probe.call("events.MinimaDetector.extend_series", det.extend_series, out)
        d = probe.call("events.DerivativeStream.feed", s.derivative.feed, out)
        s.pending += probe.call("events.MinimaDetector.feed_derivative", det.feed_derivative, d)

    def feed(self, chunk_legs, end_t: float) -> None:
        self._check_open("feed")
        # Checked before any leg is fed, so a bad chunk changes nothing.
        if not chunk_legs.keys() <= self.legs.keys():
            raise GaitInputError(f"StreamingAnalyzer.feed: no leg {chunk_legs.keys() - self.legs}")
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
            self._smooth(f"hip_{side}", hip)
            self._smooth(f"knee_{side}", bend.angle_deg)
        self._release(min(s.detector.frontier_t for s in self.series.values()), end_t)

    def finish(self, end_t: float) -> Analysis:
        self._check_open("finish")
        self._finished = True
        probe = self.probe
        for s in self.series.values():
            d = probe.call("events.DerivativeStream.finalize", s.derivative.finalize)
            det = s.detector
            s.pending += probe.call("events.MinimaDetector.feed_derivative", det.feed_derivative, d)
        self._release(math.inf, end_t)
        probe.call("events.StepSegmenter.finalize", self.segmenter.finalize)
        self._keep_strides(probe.call("core.StridePairer.finish", self.pairer.finish))
        return Analysis(self.steps, self.strides, self.asymmetry, self.diagnostics)

    def _release(self, frontier: float, now_t: float) -> None:
        """Segment every pending event earlier than `frontier` in one `run`
        and keep the steps they complete and the strides those confirm. Each
        series' events come in time order; taken in the tie order and sorted
        stably by time alone, as `segment_steps` sorts them, they fall in
        `sort_key` order."""
        ready = []
        for s in self._tie_order:
            pending = s.pending
            if pending and pending[0].t < frontier:
                k = bisect_left(pending, frontier, key=_event_t)
                ready += pending[:k]
                del pending[:k]
        if not ready:
            return
        ready.sort(key=_event_t)
        probe = self.probe
        rows = probe.call("events.StepSegmenter.run", self.segmenter.run, ready)
        # Freed before the steps are built: fewer objects alive at once, so
        # a whole recording's release seldom starts a garbage collection.
        del ready
        if rows:
            steps = probe.call("events.attach_lengths", attach_lengths, _steps(rows), self.params)
            self.steps += steps
            self.emitted_at += [now_t] * len(steps)
            self._keep_strides(probe.call("core.StridePairer.add", self.pairer.add, steps))

    def _keep_strides(self, new: list) -> None:
        self.strides += new
        self.asymmetry += [self.probe.call("core.gait_asymmetry", gait_asymmetry, s) for s in new]
