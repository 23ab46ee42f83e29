"""The three compositions the benchmark times, built from gaitlab's public API.

Every call into gaitlab goes through `tr.call("<module>.<name>", fn, ...)` so
a traced run records one span per call; an untraced run passes a NullTracer.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from gaitlab.calibrate import (
    PARAM_BOX_FRACTION,
    batch_fit_biases,
    batch_fit_params,
    feature_vector,
    rls_init,
    rls_update,
    split_train_test,
)
from gaitlab.core import gait_asymmetry, stride_metrics
from gaitlab.events import (
    AngleQuad,
    DerivativeStream,
    EventConfig,
    MinimaDetector,
    StepSegmenter,
    attach_lengths,
    segment_steps,
)
from gaitlab.orientation import filter_init, madgwick_batch, remap_mounting
from gaitlab.signal import (
    BendStream,
    ImuStream,
    UniformSeries,
    apply_offsets,
    compute_offsets,
    downsample_smooth,
    smoothed_block,
)

from gaitbench.synth import BEND_HZ, IMU_HZ, User, Walk

M_IMU = 10  # 250 Hz -> 25 Hz
M_BEND = 4  # 100 Hz -> 25 Hz
SERIES_HZ = IMU_HZ / M_IMU
DT = 1.0 / IMU_HZ

MATCH_TOL_S = 0.1  # a detected step matches a true one within this, both events
RLS_TAIL_FRACTION = 0.3  # online error is scored over this last part of a session


@dataclass
class WalkResult:
    steps: list
    strides: list
    asymmetry: list
    diagnostics: list[str]
    quad: AngleQuad | None = None  # the 25 Hz series, kept by the batch chain

    def same_outputs(self, other: "WalkResult") -> bool:
        return (self.steps, self.strides, self.asymmetry, self.diagnostics) == (
            other.steps, other.strides, other.asymmetry, other.diagnostics
        )


def batch_chain(walk: Walk, tr) -> WalkResult:
    """offsets -> remap -> Madgwick -> downsample-smooth -> segment -> lengths
    -> strides -> asymmetry, each stage over the whole recording."""
    hips, knees = {}, {}
    for side, leg in walk.legs.items():
        offsets = tr.call("signal.compute_offsets", compute_offsets, leg.standing_imu, leg.standing_bend)
        imu, bend = tr.call("signal.apply_offsets", apply_offsets, leg.imu, leg.bend, offsets)
        accel = tr.call("orientation.remap_mounting", remap_mounting, imu.accel, leg.mounting_axis)
        gyro = tr.call("orientation.remap_mounting", remap_mounting, imu.gyro, leg.mounting_axis)
        state = tr.call("orientation.filter_init", filter_init)
        hip, _ = tr.call("orientation.madgwick_batch", madgwick_batch, accel, gyro, DT, state)
        tr.count("orientation.imu_samples", len(accel))
        hips[side] = tr.call("signal.downsample_smooth", downsample_smooth, hip, M_IMU, IMU_HZ, float(imu.t[0]))
        knees[side] = tr.call(
            "signal.downsample_smooth", downsample_smooth, bend.angle_deg, M_BEND, BEND_HZ, float(bend.t[0])
        )
        tr.count("signal.samples_in", len(hip) + len(bend))
        tr.count("signal.samples_out", len(hips[side]) + len(knees[side]))
    quad = tr.call("events.AngleQuad", AngleQuad, knees["L"], knees["R"], hips["L"], hips["R"])
    diagnostics: list[str] = []
    steps = tr.call("events.segment_steps", segment_steps, quad, None, diagnostics)
    steps = tr.call("events.attach_lengths", attach_lengths, steps, walk.params)
    strides = tr.call("core.stride_metrics", stride_metrics, steps)
    asymmetry = [tr.call("core.gait_asymmetry", gait_asymmetry, s) for s in strides]
    return WalkResult(steps, strides, asymmetry, diagnostics, quad)


# ---------------------------------------------------------------- live chunks


@dataclass
class Chunk:
    end_t: float
    legs: dict[str, tuple[ImuStream, BendStream]]


def make_chunks(walk: Walk, chunk_ms: int) -> list[Chunk]:
    """Split a walk's streams into consecutive chunks of `chunk_ms`.

    A sample belongs to the chunk whose interval [c, c+1) * chunk_ms holds
    its timestamp, computed on integer milliseconds so no sample is lost or
    repeated at a boundary.
    """
    n_chunks = math.ceil(walk.duration_s * 1000 / chunk_ms)
    edges_ms = np.arange(n_chunks + 1) * chunk_ms
    cuts = {}
    for side, leg in walk.legs.items():
        imu_ms = np.arange(len(leg.imu)) * int(1000 / IMU_HZ)
        bend_ms = np.arange(len(leg.bend)) * int(1000 / BEND_HZ)
        cuts[side] = (np.searchsorted(imu_ms, edges_ms), np.searchsorted(bend_ms, edges_ms))
    chunks = []
    for c in range(n_chunks):
        legs = {}
        for side, leg in walk.legs.items():
            ci, cb = cuts[side]
            a, b = ci[c], ci[c + 1]
            p, q = cb[c], cb[c + 1]
            legs[side] = (
                ImuStream(leg.imu.t[a:b], leg.imu.accel[a:b], leg.imu.gyro[a:b]),
                BendStream(leg.bend.t[p:q], leg.bend.angle_deg[p:q]),
            )
        chunks.append(Chunk(edges_ms[c + 1] / 1000.0, legs))
    return chunks


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


class LiveSession:
    """Feeds one recording chunk by chunk through the incremental APIs.

    Minimum events are released to the segmenter in `sort_key` order, and only
    once they are earlier than every detector's frontier, so no event that is
    still to come can sort before them. Steps, strides and asymmetry are
    emitted as soon as they are confirmed; a stride is confirmed by the front
    event of the step after it, or by the end of the stream.
    """

    def __init__(self, walk: Walk, tr):
        self.tr = tr
        self.params = walk.params
        self.config = EventConfig()  # the batch chain's segment_steps default
        self.legs: dict[str, _LiveLeg] = {}
        self.series: dict[str, _LiveSeries] = {}
        for side, leg in walk.legs.items():
            offsets = tr.call("signal.compute_offsets", compute_offsets, leg.standing_imu, leg.standing_bend)
            self.legs[side] = _LiveLeg(
                offsets, leg.mounting_axis, tr.call("orientation.filter_init", filter_init)
            )
            for kind, m, rate, t0 in (
                ("hip", M_IMU, IMU_HZ, float(leg.imu.t[0])),
                ("knee", M_BEND, BEND_HZ, float(leg.bend.t[0])),
            ):
                name = f"{kind}_{side}"
                series_t0 = t0 + (m - 1) / rate  # as in signal.downsample_smooth
                self.series[name] = _LiveSeries(
                    _Growable(), m, 0, DerivativeStream(SERIES_HZ),
                    MinimaDetector(name, series_t0, SERIES_HZ, self.config),
                )
        self.diagnostics: list[str] = []
        # The sampler closes over the series only, not the session, so a
        # finished session is freed at once rather than by the cycle collector.
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

    def _push(self, events) -> None:
        for ev in events:
            heapq.heappush(self._heap, (ev.sort_key(), self._seq, ev))
            self._seq += 1

    def _smooth(self, name: str) -> None:
        tr = self.tr
        s = self.series[name]
        n = s.raw.n
        k_stop = (n - 2 * s.m) // s.m + 1 if n >= 2 * s.m else 0
        if k_stop <= s.done:
            return
        out = tr.call("signal.smoothed_block", smoothed_block, s.raw.view(), s.m, s.done, k_stop)
        tr.count("signal.samples_out", len(out))
        s.done = k_stop
        det = s.detector
        tr.call("events.MinimaDetector.extend_series", det.extend_series, out)
        d = tr.call("events.DerivativeStream.feed", s.derivative.feed, out)
        self._push(tr.call("events.MinimaDetector.feed_derivative", det.feed_derivative, d))

    def feed(self, chunk: Chunk) -> None:
        tr = self.tr
        for side, (imu, bend) in chunk.legs.items():
            leg = self.legs[side]
            imu, bend = tr.call("signal.apply_offsets", apply_offsets, imu, bend, leg.offsets)
            accel = tr.call("orientation.remap_mounting", remap_mounting, imu.accel, leg.mounting_axis)
            gyro = tr.call("orientation.remap_mounting", remap_mounting, imu.gyro, leg.mounting_axis)
            hip, leg.state = tr.call("orientation.madgwick_batch", madgwick_batch, accel, gyro, DT, leg.state)
            tr.count("orientation.imu_samples", len(accel))
            tr.count("signal.samples_in", len(hip) + len(bend))
            self.series[f"hip_{side}"].raw.extend(hip)
            self.series[f"knee_{side}"].raw.extend(bend.angle_deg)
            self._smooth(f"hip_{side}")
            self._smooth(f"knee_{side}")
        self._release(min(s.detector.frontier_t for s in self.series.values()), chunk.end_t)

    def finish(self, end_t: float) -> None:
        tr = self.tr
        for s in self.series.values():
            d = tr.call("events.DerivativeStream.finalize", s.derivative.finalize)
            self._push(tr.call("events.MinimaDetector.feed_derivative", s.detector.feed_derivative, d))
            self._push(tr.call("events.MinimaDetector.finalize", s.detector.finalize))
        self._release(math.inf, end_t)
        tr.call("events.StepSegmenter.finalize", self.segmenter.finalize)
        n = len(self.steps)
        if n >= 2 and len(self.strides) < n // 2:
            self._emit_stride(n // 2 - 1, self.steps[: 2 * (n // 2)])

    def _release(self, frontier: float, now_t: float) -> None:
        tr = self.tr
        heap = self._heap
        while heap and heap[0][2].t < frontier:
            ev = heapq.heappop(heap)[2]
            step = tr.call("events.StepSegmenter.process", self.segmenter.process, ev)
            if step is None:
                continue
            step = tr.call("events.attach_lengths", attach_lengths, [step], self.params)[0]
            self.steps.append(step)
            self.emitted_at.append(now_t)
            n = len(self.steps)
            if n >= 3 and n % 2 == 1:
                # Step 2i+2 fixes the time of stride i.
                i = (n - 3) // 2
                self._emit_stride(i, self.steps)

    def _emit_stride(self, i: int, steps: list) -> None:
        tr = self.tr
        # The velocity window spans at most five strides, so stride i needs
        # only the steps from stride i-4 on (plus the next step, if known).
        lo = 2 * max(0, i - 4)
        window = tr.call("core.stride_metrics", stride_metrics, steps[lo : 2 * i + 3])
        stride = replace(window[-1], index=i)
        self.strides.append(stride)
        self.asymmetry.append(tr.call("core.gait_asymmetry", gait_asymmetry, stride))

    def result(self) -> WalkResult:
        return WalkResult(self.steps, self.strides, self.asymmetry, self.diagnostics)


# ------------------------------------------------------------ calibration


@dataclass
class CalibResult:
    fit: object  # CalibrationResult of the parameter fit
    bias: object  # AngleBias
    test_steps: list
    rls_predictions: np.ndarray  # a-priori prediction for every step


def calibrate_user(user: User, tr) -> CalibResult:
    """Offline fit on the training split, then one online RLS pass."""
    train, test = tr.call("calibrate.split_train_test", split_train_test, len(user.steps))
    steps, refs = user.steps, user.refs
    fit = tr.call("calibrate.batch_fit_params", batch_fit_params, steps[train], refs[train], user.nominal)
    bias = tr.call("calibrate.batch_fit_biases", batch_fit_biases, steps[train], refs[train], fit.params)
    test_steps = tr.call("events.attach_lengths", attach_lengths, steps[test], fit.params, bias)
    state = tr.call("calibrate.rls_init", rls_init, user.nominal)
    predictions = np.empty(len(steps))
    for k, (step, ref) in enumerate(zip(steps, refs)):
        h = tr.call("calibrate.feature_vector", feature_vector, step.angles)
        predictions[k] = h.as_array() @ state.w
        state = tr.call("calibrate.rls_update", rls_update, state, h, ref.length_cm)
    tr.count("calibrate.rls_updates", len(steps))
    return CalibResult(fit, bias, test_steps, predictions)


# ------------------------------------------------------------ correctness


def match_truth(walk: Walk, steps: list) -> tuple[np.ndarray, np.ndarray]:
    """Detected and true lengths of the true steps found in `steps`."""
    by_side = {side: sorted((s for s in steps if s.front_side == side),
                            key=lambda s: s.t_front_event) for side in ("L", "R")}
    times = {side: [s.t_front_event for s in ss] for side, ss in by_side.items()}
    got, want = [], []
    for true in walk.truth:
        cands = by_side[true.front_side]
        i = bisect_left(times[true.front_side], true.t_front - MATCH_TOL_S)
        while i < len(cands) and cands[i].t_front_event <= true.t_front + MATCH_TOL_S:
            if abs(cands[i].t_back_event - true.t_back) <= MATCH_TOL_S:
                got.append(cands[i].length_cm)
                want.append(true.length_cm)
                break
            i += 1
    return np.array(got), np.array(want)


def check_calibration(user: User, out: CalibResult) -> tuple[list[str], float, float]:
    """Violations of the offline fit's guarantees, and the training SSE
    before the fit (nominal params, no bias) and after both fits."""
    problems = []
    nominal = np.array(user.nominal.as_tuple())
    fitted = np.array(out.fit.params.as_tuple())
    slack = 1e-9 * nominal
    if np.any(fitted < (1 - PARAM_BOX_FRACTION) * nominal - slack) or np.any(
        fitted > (1 + PARAM_BOX_FRACTION) * nominal + slack
    ):
        problems.append(f"fitted params {fitted} outside the box around {nominal}")
    train, _ = split_train_test(len(user.steps))
    refs = np.array([r.length_cm for r in user.refs[train]])
    fitted_lengths = np.array(
        [s.length_cm for s in attach_lengths(user.steps[train], out.fit.params, out.bias)]
    )
    sse_before = out.fit.sse_before_cm2
    sse_after = float(np.sum((refs - fitted_lengths) ** 2))
    if not out.fit.sse_after_cm2 <= sse_before:
        problems.append(f"parameter fit raised SSE: {out.fit.sse_after_cm2} > {sse_before}")
    if not sse_after <= sse_before * (1 + 1e-12):
        problems.append(f"fit raised SSE: {sse_after} > {sse_before}")
    return problems, sse_before, sse_after


def split_errors(user: User, out: CalibResult) -> tuple[np.ndarray, np.ndarray]:
    """Fitted and true lengths of the test split."""
    _, test = split_train_test(len(user.steps))
    return np.array([s.length_cm for s in out.test_steps]), user.true_lengths[test]


def rls_tail(user: User, out: CalibResult) -> tuple[np.ndarray, np.ndarray]:
    start = int(math.floor(len(user.steps) * (1 - RLS_TAIL_FRACTION)))
    return out.rls_predictions[start:], user.true_lengths[start:]

