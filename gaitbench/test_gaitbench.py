"""Tests of the benchmark's own code: generator truth, live composition, spans."""

import numpy as np
import pytest

from gaitbench import refclock, synth
from gaitbench import workloads as W
from gaitbench.run import OpLog
from gaitbench.tracing import NullTracer, Span, Tracer, call_trees, module_self_ns, self_times
from gaitlab.core import EventAngles, step_length
from gaitlab.orientation import remap_mounting
from gaitlab.signal import apply_offsets, compute_offsets


@pytest.fixture(scope="module")
def quiet_walk():
    return synth.make_walk(np.random.default_rng(5), duration_s=20.0, cadence_spm=104.0, noise=0.0)


@pytest.fixture(scope="module")
def noisy_walk():
    return synth.make_walks(7, 1, 20.0)[0]


class TestGeneratorTruth:
    def test_truth_is_step_length_at_the_stream_minima(self, quiet_walk):
        # Decode the zero-noise raw streams back to angles. Each true step
        # must sit at the minima of its two event streams, and its length
        # must be step_length at the angles the streams show there.
        assert len(quiet_walk.truth) >= 25
        angles = {}
        for side, leg in quiet_walk.legs.items():
            offsets = compute_offsets(leg.standing_imu, leg.standing_bend)
            imu, bend = apply_offsets(leg.imu, leg.bend, offsets)
            accel = remap_mounting(imu.accel, leg.mounting_axis)
            hip = np.degrees(np.arctan2(accel[:, 0], accel[:, 2]))
            angles[f"hip_{side}"] = (imu.t, hip)
            angles[f"knee_{side}"] = (bend.t, bend.angle_deg)

        def at(name, t):
            ts, vs = angles[name]
            return np.interp(t, ts, vs)

        other = {"L": "R", "R": "L"}
        for step in quiet_walk.truth:
            f, b = step.front_side, other[step.front_side]
            got = EventAngles(
                alpha_f=at(f"hip_{f}", step.t_front),
                beta_f=at(f"knee_{f}", step.t_front),
                alpha_b=at(f"hip_{b}", step.t_back),
                beta_b=at(f"knee_{b}", step.t_back),
            )
            # Linear interpolation between samples costs at most ~0.05 deg.
            for name in ("alpha_f", "beta_f", "alpha_b", "beta_b"):
                assert getattr(got, name) == pytest.approx(getattr(step.angles, name), abs=0.1)
            for name, t in ((f"knee_{f}", step.t_front), (f"hip_{b}", step.t_back)):
                here = at(name, t)
                assert at(name, t - 0.05) > here and at(name, t + 0.05) > here
            assert step.length_cm == step_length(quiet_walk.params, step.angles).total
            assert step_length(quiet_walk.params, got).total == pytest.approx(step.length_cm, abs=0.2)
            assert 0.0 < step.t_back - step.t_front < 0.2

    def test_gyro_is_the_hip_rate(self, quiet_walk):
        for leg in quiet_walk.legs.values():
            offsets = compute_offsets(leg.standing_imu, leg.standing_bend)
            imu, _ = apply_offsets(leg.imu, leg.bend, offsets)
            accel = remap_mounting(imu.accel, leg.mounting_axis)
            gyro = remap_mounting(imu.gyro, leg.mounting_axis)
            hip = np.degrees(np.unwrap(np.arctan2(accel[:, 0], accel[:, 2])))
            rate = np.gradient(hip, imu.t)
            assert np.allclose(-gyro[1:-1, 1], rate[1:-1], atol=0.5)
            assert np.allclose(gyro[:, [0, 2]], 0.0, atol=1e-9)

    def test_same_seed_same_inputs(self):
        a, b = synth.make_walks(3, 2, 10.0), synth.make_walks(3, 2, 10.0)
        for x, y in zip(a, b):
            for side in ("L", "R"):
                assert np.array_equal(x.legs[side].imu.accel, y.legs[side].imu.accel)
                assert np.array_equal(x.legs[side].bend.angle_deg, y.legs[side].bend.angle_deg)
            assert x.truth == y.truth
        c, d = synth.make_cohort(3, 2, 10), synth.make_cohort(3, 2, 10)
        assert [u.refs for u in c] == [u.refs for u in d]

    def test_one_leg_on_a_non_y_mount(self):
        for walk in synth.make_walks(11, 6, 5.0):
            mounts = [leg.mounting_axis for leg in walk.legs.values()]
            assert mounts.count("y") == 1
            assert sum(m in synth.NON_Y_MOUNTS for m in mounts) == 1


class TestLiveComposition:
    @pytest.mark.parametrize("chunk_ms", [10, 40, 130, 1000])
    def test_live_equals_batch(self, noisy_walk, chunk_ms):
        batch = W.batch_chain(noisy_walk, NullTracer())
        session = W.LiveSession(noisy_walk, NullTracer())
        chunks = W.make_chunks(noisy_walk, chunk_ms)
        for chunk in chunks:
            session.feed(chunk)
        session.finish(chunks[-1].end_t)
        live = session.result()
        assert len(batch.steps) >= 25
        assert live.same_outputs(batch)
        # Every step is emitted after its back event and in step order.
        assert all(t >= s.t_back_event for t, s in zip(session.emitted_at, live.steps))
        assert session.emitted_at == sorted(session.emitted_at)

    def test_chunks_cover_every_sample_once(self, noisy_walk):
        chunks = W.make_chunks(noisy_walk, 30)
        for side, leg in noisy_walk.legs.items():
            imu_t = np.concatenate([c.legs[side][0].t for c in chunks])
            bend_t = np.concatenate([c.legs[side][1].t for c in chunks])
            assert np.array_equal(imu_t, leg.imu.t)
            assert np.array_equal(bend_t, leg.bend.t)


class TestBatchAccuracy:
    def test_walk_within_the_correctness_bound(self, noisy_walk):
        result = W.batch_chain(noisy_walk, NullTracer())
        got, want = W.match_truth(noisy_walk, result.steps)
        assert len(got) == len(noisy_walk.truth)
        assert np.mean(np.abs(got - want) / want) * 100 < 5.0


class TestSpanArithmetic:
    def test_self_time_of_hand_built_tree(self):
        spans = [
            Span(0, -1, "bench.op", 0, 100),
            Span(1, 0, "signal.a", 10, 30),
            Span(2, 0, "orientation.b", 20, 40),  # overlaps span 1
            Span(3, 2, "core.c", 25, 35),
            Span(4, 0, "events.d", 90, 120),  # overruns its parent
        ]
        own = self_times(spans)
        assert own == {0: 100 - (30 + 10), 1: 20, 2: 20 - 10, 3: 10, 4: 30}
        assert module_self_ns(spans) == {
            "bench": 60, "signal": 20, "orientation": 10, "core": 10, "events": 30
        }

    def test_call_trees_select_whole_ops(self):
        spans = [
            Span(0, -1, "bench.op", 0, 10),
            Span(1, 0, "signal.a", 1, 2),
            Span(2, -1, "bench.op", 10, 20),
            Span(3, 2, "core.b", 11, 15),
            Span(4, 3, "core.c", 12, 13),
            Span(5, -1, "bench.op", 20, 30),
        ]
        assert [s.span_id for s in call_trees(spans, [2, 5])] == [2, 3, 4, 5]

    def test_disjoint_children_sum_to_parent(self):
        spans = [Span(0, -1, "bench.op", 0, 50)] + [
            Span(i, 0, "signal.x", 10 * i - 10, 10 * i - 5) for i in range(1, 6)
        ]
        assert sum(self_times(spans).values()) == 50

    def test_tracer_records_nesting(self):
        tr = Tracer("run")

        def inner():
            return 7

        def outer():
            return tr.call("core.inner", inner) + 1

        assert tr.call("bench.op", outer) == 8
        op, child = sorted(tr.spans, key=lambda s: s.span_id)
        assert (op.parent_id, child.parent_id) == (-1, op.span_id)
        assert op.start_ns <= child.start_ns <= child.end_ns <= op.end_ns
        assert sum(module_self_ns(tr.spans).values()) == op.end_ns - op.start_ns

    def test_span_closed_when_call_raises(self):
        tr = Tracer("run")
        with pytest.raises(ZeroDivisionError):
            tr.call("core.bad", lambda: 1 / 0)
        assert [s.name for s in tr.spans] == ["core.bad"]


class TestRefClock:
    def test_factor_is_nominal_over_the_bracketing_kernel_times(self, monkeypatch):
        # Timed kernel runs take 10, 30 and 20 ns; the warm-up run is untimed.
        ticks = iter([0, 10, 100, 130, 200, 220])
        monkeypatch.setattr(refclock, "perf_counter_ns", lambda: next(ticks))
        monkeypatch.setitem(refclock.KERNELS, "fake", (lambda: 0.0, 40.0))
        clock = refclock.RefClock("fake")
        assert clock.factor() == pytest.approx(40.0 / 20.0)
        assert clock.factor() == pytest.approx(40.0 / 25.0)
        assert clock.kernel_ns == [10, 30, 20]

    def test_ops_take_the_factor_of_the_kernel_run_after_them(self):
        class Clock:
            factors = iter([2.0, 0.5])

            def factor(self):
                return next(self.factors)

        log = OpLog(Clock())
        log.record(0, 10, None, 1)
        log.record(1, 20, None, 1)
        log.settle()
        log.record(0, 30, None, 1)
        log.record(1, 50, None, 1)
        log.settle()
        log.record(0, 40, None, 1)  # not settled: left out
        assert log.scaled == {0: [20.0, 15.0], 1: [40.0, 25.0]}
        op_ns, work = log.typical()
        assert list(op_ns) == [17.5, 32.5] and list(work) == [1.0, 1.0]

    @pytest.mark.parametrize("name", sorted(refclock.KERNELS))
    def test_kernels_are_deterministic(self, name):
        run, nominal = refclock.KERNELS[name]
        assert run() == run() and nominal > 0
