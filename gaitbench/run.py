"""gaitlab benchmark: run one workload, check its outputs, print its metrics.

    python3 gaitbench/run.py --workload walk_batch --seed 1 --seconds 20 --trace 0

Run from the repository root; gaitlab is imported from `src/`. The workloads,
the metrics and which layer metric should move which end-to-end metric are
described in gaitbench/README.md.

A run makes its inputs from the seed, then passes over them again and again
until --seconds have gone by. Op k of every pass runs the same input. An op's
wall time is scaled to a fixed machine speed by a reference kernel run next to
it (see refclock.py), and its time is the median of its scaled passes. With
--trace 0 every pass is untraced and the last line of stdout is a JSON object
with the end-to-end metrics. With --trace 1 traced passes alternate with
untraced ones, the last line holds the per-layer metrics and the spans are
written to gaitbench/out/. The lines before it print every metric the
workload defines, by name and unit.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: load comes from this single
# process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import gaitlab  # noqa: F401
except ModuleNotFoundError:
    sys.exit(f"gaitlab sources not found under {ROOT / 'src'}")

import numpy as np  # noqa: E402

from gaitbench import refclock, synth, tracing  # noqa: E402
from gaitbench import workloads as W  # noqa: E402
from gaitlab.calibrate import mape_percent  # noqa: E402
from gaitlab.errors import GaitError  # noqa: E402
from gaitlab.events import detect_minima  # noqa: E402

SETUP_RUNS = 9
SETUP_KERNEL_REPS = 5  # kernel runs on each side of a set-up process
CHUNK_MS = 40
WALK_BATCH_WALKS, WALK_BATCH_S = 12, 60.0
LIVE_WALKS, LIVE_WALK_S = 8, 30.0
COHORT_USERS, COHORT_STEPS = 256, 80
MIN_PASSES = 3  # per mode, so every op has a median of at least three
# Ops timed between two runs of the reference kernel: about 20-70 ms of work.
USERS_PER_REF = 4
CHUNKS_PER_REF = 100

# Correctness bounds of one analysed walk against the generator's truth. The
# current chain stays near 2.5% MAPE; its error comes mostly from sampling the back
# knee at a 25 Hz hip-minimum instant while the knee moves fast.
MAX_WALK_MAPE_PCT = 5.0
MIN_STEPS_FOUND_PCT = 95.0

NULL = tracing.NullTracer()


@dataclass
class OpLog:
    """Timings of every op across passes, and the failures."""

    clock: refclock.RefClock
    times: dict = field(default_factory=dict)  # op index -> [wall ns per pass]
    scaled: dict = field(default_factory=dict)  # op index -> [scaled ns per pass]
    pending: list = field(default_factory=list)  # (op index, wall ns) not yet scaled
    roots: dict = field(default_factory=dict)  # op index -> [root span id per pass]
    work: dict = field(default_factory=dict)  # op index -> raw samples (or 1)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, k: int, ns: int, root, work: int) -> None:
        self.times.setdefault(k, []).append(ns)
        self.roots.setdefault(k, []).append(root)
        self.work[k] = work
        self.pending.append((k, ns))

    def settle(self) -> None:
        """Run the reference kernel and scale the ops timed since its last run."""
        f = self.clock.factor()
        for k, ns in self.pending:
            self.scaled.setdefault(k, []).append(ns * f)
        self.pending.clear()

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 5:
            self.problems.append(what)

    def typical(self) -> tuple[np.ndarray, np.ndarray]:
        """Per op: median scaled time (ns) over passes, work."""
        keys = sorted(self.scaled)
        return (np.array([statistics.median(self.scaled[k]) for k in keys]),
                np.array([self.work[k] for k in keys], dtype=float))

    def best(self) -> tuple[np.ndarray, list, np.ndarray]:
        """Per op: fastest time (ns), the root span of that pass, work."""
        keys = sorted(self.times)
        pick = [int(np.argmin(self.times[k])) for k in keys]
        return (
            np.array([self.times[k][i] for k, i in zip(keys, pick)], dtype=float),
            [self.roots[k][i] for k, i in zip(keys, pick)],
            np.array([self.work[k] for k in keys], dtype=float),
        )


def timed(tr, fn, *args):
    root = tr.next_id
    start = perf_counter_ns()
    out = tr.call("bench.op", fn, *args)
    return out, perf_counter_ns() - start, root


@dataclass
class WalkOutcome:
    """Accuracy and segmentation outcome of one pass over a set of walks."""

    got: list = field(default_factory=list)
    want: list = field(default_factory=list)
    true_steps: int = 0
    steps: int = 0
    discarded: int = 0
    knee_minima: int = 0
    minima: int = 0
    strides: int = 0
    lags_s: list = field(default_factory=list)

    def add(self, walk, result) -> None:
        got, want = W.match_truth(walk, result.steps)
        self.got.extend(got)
        self.want.extend(want)
        self.true_steps += len(walk.truth)
        self.steps += len(result.steps)
        self.discarded += sum("discarded" in d for d in result.diagnostics)
        self.strides += len(result.strides)
        for name in ("knee_L", "knee_R", "hip_L", "hip_R"):
            n = len(detect_minima(result.quad.series(name), series_id=name))
            self.minima += n
            self.knee_minima += n if name.startswith("knee") else 0

    def metrics(self) -> dict:
        return {
            "step_mape_pct": mape_percent(self.got, self.want),
            "events.steps_found_pct": 100.0 * len(self.got) / self.true_steps,
            "events.minima_found": self.minima,
            "events.steps_found": self.steps,
            "events.steps_discarded": self.discarded,
            "events.steps_per_knee_minimum": self.steps / self.knee_minima,
            "core.strides": self.strides,
        }


def check_walk(walk, result, log: OpLog, n_ops: int = 1) -> None:
    got, want = W.match_truth(walk, result.steps)
    found = 100.0 * len(got) / len(walk.truth)
    mape = mape_percent(got, want)
    if found < MIN_STEPS_FOUND_PCT or not mape <= MAX_WALK_MAPE_PCT:
        log.fail(f"walk at {walk.cadence_spm:.1f} steps/min: {found:.1f}% of steps "
                 f"found, MAPE {mape:.2f}%", n_ops)


class WalkBatch:
    """Long walks, each analysed once per pass by the batch chain."""

    op = "recording"
    kernel = "scalar"
    display_names = {"raw_ksps": "raw_ksps", "step_mape_pct": "step_mape_pct",
                   "steps_found_pct": "events.steps_found_pct"}

    def __init__(self, seed: int):
        self.walks = synth.make_walks(seed, WALK_BATCH_WALKS, WALK_BATCH_S)
        self.outcome = WalkOutcome()

    def run_pass(self, tr, log: OpLog, first: bool) -> None:
        for k, walk in enumerate(self.walks):
            log.attempted += 1
            try:
                result, ns, root = timed(tr, W.batch_chain, walk, tr)
            except GaitError as e:
                log.fail(f"{type(e).__name__}: {e}")
                continue
            log.record(k, ns, root, walk.raw_samples())
            log.settle()
            check_walk(walk, result, log)
            if first:
                self.outcome.add(walk, result)

    def metrics(self) -> dict:
        return self.outcome.metrics()


class LiveChunks:
    """The same kind of walks, fed in 40 ms chunks through the incremental APIs."""

    op = "chunk"
    kernel = "numeric"
    display_names = {"raw_ksps": "raw_ksps", "chunk_p50_us": "op_p50_us", "chunk_p99_us": "op_p99_us",
                   "step_emit_lag_ms": "events.step_emit_lag_ms", "step_mape_pct": "step_mape_pct",
                   "steps_found_pct": "events.steps_found_pct"}

    def __init__(self, seed: int):
        self.walks = synth.make_walks(seed, LIVE_WALKS, LIVE_WALK_S)
        self.chunks = [W.make_chunks(w, CHUNK_MS) for w in self.walks]
        self.reference = [W.batch_chain(w, NULL) for w in self.walks]
        self.outcome = WalkOutcome()

    def run_pass(self, tr, log: OpLog, first: bool) -> None:
        k = 0
        for walk, chunks, reference in zip(self.walks, self.chunks, self.reference):
            session = None
            last = len(chunks) - 1

            def op(c, chunk):
                nonlocal session
                if session is None:  # the first chunk pays for the session set-up
                    session = W.LiveSession(walk, tr)
                session.feed(chunk)
                if c == last:
                    session.finish(chunk.end_t)

            ok = 0
            for c, chunk in enumerate(chunks):
                log.attempted += 1
                try:
                    _, ns, root = timed(tr, op, c, chunk)
                except GaitError as e:
                    log.fail(f"chunk {c}: {type(e).__name__}: {e}", len(chunks) - c)
                    log.attempted += last - c
                    break
                log.record(k + c, ns, root, sum(len(i) + len(b) for i, b in chunk.legs.values()))
                if c % CHUNKS_PER_REF == CHUNKS_PER_REF - 1:
                    log.settle()
                ok += 1
            else:
                log.settle()
                if not session.result().same_outputs(reference):
                    log.fail(f"walk at {walk.cadence_spm:.1f} steps/min: live outputs "
                             f"differ from the batch chain's", ok)
                else:
                    check_walk(walk, reference, log, ok)
                    if first:
                        self.outcome.add(walk, reference)
                        self.outcome.lags_s.extend(
                            t - s.t_back_event for t, s in zip(session.emitted_at, session.steps)
                        )
            k += len(chunks)

    def metrics(self) -> dict:
        out = self.outcome.metrics()
        out["events.step_emit_lag_ms"] = 1000.0 * statistics.median(self.outcome.lags_s)
        return out


class CalibCohort:
    """Users calibrated offline on a training split, then online by RLS."""

    op = "user"
    kernel = "numeric"
    display_names = {"calib_users_per_s": "ops_per_s", "calib_mape_pct": "step_mape_pct",
                   "rls_mape_pct": "calibrate.rls_mape_pct"}

    def __init__(self, seed: int):
        self.users = synth.make_cohort(seed, COHORT_USERS, COHORT_STEPS)
        self.test = ([], [])
        self.tail = ([], [])
        self.sse = [0.0, 0.0]

    def run_pass(self, tr, log: OpLog, first: bool) -> None:
        for k, user in enumerate(self.users):
            log.attempted += 1
            try:
                out, ns, root = timed(tr, W.calibrate_user, user, tr)
            except GaitError as e:
                log.fail(f"{type(e).__name__}: {e}")
                continue
            log.record(k, ns, root, 1)
            if k % USERS_PER_REF == USERS_PER_REF - 1:
                log.settle()
            problems, before, after = W.check_calibration(user, out)
            if problems:
                log.fail("; ".join(problems))
            if first:
                for acc, (got, want) in ((self.test, W.split_errors(user, out)),
                                         (self.tail, W.rls_tail(user, out))):
                    acc[0].extend(got)
                    acc[1].extend(want)
                self.sse[0] += before
                self.sse[1] += after
        log.settle()

    def metrics(self) -> dict:
        return {
            "step_mape_pct": mape_percent(*self.test),
            "calibrate.rls_mape_pct": mape_percent(*self.tail),
            "calibrate.sse_ratio": self.sse[1] / self.sse[0],
        }


WORKLOADS = {"walk_batch": WalkBatch, "live_chunks": LiveChunks, "calib_cohort": CalibCohort}


def measure_setup(seed: int, clock: refclock.RefClock) -> float:
    """Median scaled set-up time over SETUP_RUNS fresh processes."""
    walk = synth.make_walks(seed, 1, 5.0)[0]
    counts, arrays = [], []
    for leg in walk.legs.values():
        counts.append([len(leg.standing_imu), len(leg.standing_bend)])
        arrays += [leg.standing_imu.t, leg.standing_imu.accel, leg.standing_imu.gyro,
                   leg.standing_bend.t, leg.standing_bend.angle_deg]
    payload = (json.dumps(counts) + "\n").encode() + b"".join(
        np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays
    )
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    clock.factor(SETUP_KERNEL_REPS)
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(probe)], input=payload,
                              capture_output=True, check=True, timeout=120)
        times.append(float(done.stdout.decode().strip().splitlines()[-1]) * clock.factor(SETUP_KERNEL_REPS))
    return statistics.median(times)


def timing_metrics(log: OpLog) -> dict:
    op_ns, work = log.typical()
    return {
        "ops_per_s": len(op_ns) / op_ns.sum() * 1e9,
        "op_p50_us": float(np.percentile(op_ns, 50)) / 1e3,
        "op_p99_us": float(np.percentile(op_ns, 99)) / 1e3,
        "raw_ksps": work.sum() / op_ns.sum() * 1e6,
    }


def layer_metrics(tracer: tracing.Tracer, traced: OpLog, untraced: OpLog, n_traced_passes: int) -> dict:
    """Per-layer numbers from the spans of each op's fastest traced pass."""
    best_traced, roots, _ = traced.best()
    best_untraced, _, _ = untraced.best()
    all_spans = tracer.spans
    spans = tracing.call_trees(all_spans, roots)
    own = tracing.module_self_ns(spans)
    total = tracing.name_total_ns(spans)
    calls = Counter(s.name for s in all_spans)
    counts = {name: n / n_traced_passes for name, n in tracer.counts.items()}
    n_ops = len(best_traced)
    op_ns = best_traced.sum()

    def per_op_ms(ns):
        return ns / n_ops / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def module_total(prefix, skip=()):
        return sum(t for name, t in total.items() if name.startswith(prefix) and name not in skip)

    imu = counts.get("orientation.imu_samples", 0)
    orient_calls = sum(n for name, n in calls.items() if name.startswith("orientation.")) / n_traced_passes
    out = {f"{m}.busy_ms": per_op_ms(own.get(m, 0))
           for m in ("signal", "orientation", "events", "core", "calibrate", "bench")}
    out.update({
        "op_ms_untraced": best_untraced.sum() / n_ops / 1e6,
        "op_ms_traced": per_op_ms(op_ns),
        "trace_overhead_pct": 100.0 * (op_ns / best_untraced.sum() - 1.0),
        "orientation.madgwick_ns_per_sample": ratio(total.get("orientation.madgwick_batch", 0), imu),
        "orientation.remap_ns_per_sample": ratio(total.get("orientation.remap_mounting", 0), imu),
        "orientation.madgwick_share_pct": 100.0 * total.get("orientation.madgwick_batch", 0) / op_ns,
        "orientation.remap_share_pct": 100.0 * total.get("orientation.remap_mounting", 0) / op_ns,
        "orientation.calls": orient_calls,
        "orientation.us_per_call": ratio(module_total("orientation."), orient_calls) / 1e3,
        "signal.samples_in": counts.get("signal.samples_in", 0),
        "signal.samples_out": counts.get("signal.samples_out", 0),
        "events.segment_ms": per_op_ms(module_total("events.", skip=("events.attach_lengths",))),
        "calibrate.fit_params_ms": per_op_ms(total.get("calibrate.batch_fit_params", 0)),
        "calibrate.fit_biases_ms": per_op_ms(total.get("calibrate.batch_fit_biases", 0)),
        "calibrate.rls_us_per_update": ratio(total.get("calibrate.rls_update", 0),
                                             counts.get("calibrate.rls_updates", 0)) / 1e3,
    })
    return out


def load_metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    e2e_units, layer_units = load_metric_specs()

    clock = refclock.RefClock(WORKLOADS[args.workload].kernel)
    setup_s = measure_setup(args.seed, clock) if not args.trace else None
    workload = WORKLOADS[args.workload](args.seed)
    workload.run_pass(NULL, OpLog(clock), first=False)  # warm-up: lazy imports, first-call costs
    # The inputs live for the whole run; frozen, they are not walked by every
    # full collection that gaitlab's own garbage triggers.
    gc.collect()
    gc.freeze()

    logs = {False: OpLog(clock), True: OpLog(clock)}
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}") if args.trace else None
    modes = 2 if args.trace else 1
    n_passes = 0
    start = perf_counter()
    while n_passes < MIN_PASSES * modes or perf_counter() - start < args.seconds:
        traced = n_passes % modes == 1
        workload.run_pass(tracer if traced else NULL, logs[traced], first=n_passes == 0)
        n_passes += 1
    untraced = logs[False]
    attempted = untraced.attempted + logs[True].attempted
    failed = untraced.failed + logs[True].failed

    values = {
        "setup_s": setup_s,
        **timing_metrics(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_pct": 100.0 * failed / attempted,
        "bench.ref_kernel_us": statistics.median(clock.kernel_ns) / 1e3,
        **workload.metrics(),
    }
    if args.trace:
        values.update(layer_metrics(tracer, logs[True], untraced, n_passes // 2))
        tracer.write(Path(__file__).with_name("out") / f"trace-{args.workload}-seed{args.seed}.csv.gz")

    units = {**e2e_units, **layer_units, "raw_ksps": "kS/s", "failed_pct": "%"}
    print(f"# {args.workload} seed={args.seed}: {n_passes} passes over "
          f"{len(untraced.times)} ops (one op = one {workload.op})")
    wall, _, _ = untraced.best()
    print(f"# unscaled: fastest-pass ops_per_s = {len(wall) / wall.sum() * 1e9:.6g} 1/s; "
          f"{clock.name} reference kernel median {values['bench.ref_kernel_us']:.6g} us, "
          f"nominal {clock.nominal_ns / 1e3:.6g} us")
    for problem in untraced.problems + logs[True].problems:
        print(f"# check failed: {problem}")
    shown = {**workload.display_names, "failed_pct": "failed_pct", "peak_rss_mb": "peak_rss_mb",
             "setup_s": "setup_s"}
    for alias, key in shown.items():
        if values.get(key) is not None:
            print(f"{alias} = {values[key]:.6g} {units[key]}")
    names = layer_units if args.trace else e2e_units
    metrics = {name: {"value": float(values.get(name) or 0.0), "unit": unit}
               for name, unit in names.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        sys.exit(f"non-finite metrics: {bad}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
