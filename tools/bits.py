"""Compare two source trees' outputs bit for bit over a benchmark workload's inputs.

    python tools/bits.py PARENT_TREE CHANGED_TREE [--workload W] [--seeds 3131 8484]

Each tree is a checkout's root (it holds `src/gaitlab` and `gaitbench`).
For every item of each seed's inputs, a child process on that tree prints
one line of hex, and the script prints how many items were compared and
which differ, and exits 1 if any does. The workload W picks the inputs and
the line:

- `calib_cohort` (the default): per user of the benchmark cohort
  (`gaitbench.synth.make_cohort` with the workload's size), the benchmark's
  own `calibrate_user`: the fitted parameters, both SSEs, the degenerate
  flag, the four angle biases, the test split's step lengths and every
  a-priori RLS prediction.
- `walk_batch` and `live_chunks`: per walk of the workload
  (`gaitbench.synth.make_walks` with its count and length), the SHA-256 of
  each leg's `madgwick_batch` angles and end state (after the offsets and
  the mounting remap), and of the steps, the strides and the asymmetry of
  the benchmark's `batch_chain` and of its `LiveSession` fed in 40 ms
  chunks, every float hashed as its hex.

    python tools/bits.py --dump SEED [--workload W]

prints those lines for the gaitlab and gaitbench on `sys.path`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("calib_cohort", "walk_batch", "live_chunks")


def hexes(values) -> str:
    import numpy as np

    return np.asarray(values, dtype=np.float64).tobytes().hex()


def flat(obj) -> str:
    """A text form of obj in which every float is its hex, so equal text is equal bits."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        fields = (flat(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({','.join(fields)})"
    if isinstance(obj, (list, tuple)):
        return f"[{','.join(flat(v) for v in obj)}]"
    if hasattr(obj, "tobytes"):
        return obj.tobytes().hex()
    return repr(obj)


def digest(*parts) -> str:
    return hashlib.sha256(flat(parts).encode()).hexdigest()


def dump_cohort(seed: int) -> None:
    from gaitbench.run import COHORT_STEPS, COHORT_USERS
    from gaitbench.synth import make_cohort
    from gaitbench.tracing import NullTracer
    from gaitbench.workloads import calibrate_user

    tr = NullTracer()
    for k, user in enumerate(make_cohort(seed, COHORT_USERS, COHORT_STEPS)):
        out = calibrate_user(user, tr)
        fit = out.fit
        print(
            seed, k,
            hexes(fit.params.as_tuple()),
            hexes([fit.sse_before_cm2, fit.sse_after_cm2]),
            int(fit.degenerate),
            hexes(out.bias.as_array()),
            hexes([s.length_cm for s in out.test_steps]),
            hexes(out.rls_predictions),
        )


def dump_walks(seed: int, workload: str) -> None:
    from gaitbench.run import CHUNK_MS, LIVE_WALK_S, LIVE_WALKS, WALK_BATCH_S, WALK_BATCH_WALKS
    from gaitbench.synth import make_walks
    from gaitbench.tracing import NullTracer
    from gaitbench.workloads import DT, LiveSession, batch_chain, make_chunks
    from gaitlab.orientation import filter_init, madgwick_batch, remap_mounting
    from gaitlab.signal import apply_offsets, compute_offsets

    tr = NullTracer()
    count, seconds = {"walk_batch": (WALK_BATCH_WALKS, WALK_BATCH_S),
                      "live_chunks": (LIVE_WALKS, LIVE_WALK_S)}[workload]
    for k, walk in enumerate(make_walks(seed, count, seconds)):
        legs = []
        for side, leg in walk.legs.items():
            imu, _ = apply_offsets(leg.imu, leg.bend, compute_offsets(leg.standing_imu, leg.standing_bend))
            accel = remap_mounting(imu.accel, leg.mounting_axis)
            gyro = remap_mounting(imu.gyro, leg.mounting_axis)
            legs.append(digest(side, *madgwick_batch(accel, gyro, DT, filter_init())))
        batch = batch_chain(walk, tr)
        chunks = make_chunks(walk, CHUNK_MS)
        session = LiveSession(walk, tr)
        for chunk in chunks:
            session.feed(chunk)
        session.finish(chunks[-1].end_t)
        live = session.result()
        print(
            seed, k, *legs,
            *(digest(r.steps) for r in (batch, live)),
            *(digest(r.strides) for r in (batch, live)),
            *(digest(r.asymmetry) for r in (batch, live)),
        )


def run_tree(tree: str, seed: int, workload: str) -> list[str]:
    here = os.path.abspath(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), tree]))
    done = subprocess.run(
        [sys.executable, here, "--dump", str(seed), "--workload", workload],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return done.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="the two checkouts to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3131, 8484])
    parser.add_argument("--workload", choices=WORKLOADS, default="calib_cohort")
    parser.add_argument("--dump", type=int, metavar="SEED", help="print one seed's lines")
    args = parser.parse_args()
    if args.dump is not None:
        if args.workload == "calib_cohort":
            dump_cohort(args.dump)
        else:
            dump_walks(args.dump, args.workload)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, or --dump SEED")
    what = "users" if args.workload == "calib_cohort" else "walks"
    differ = compared = 0
    for seed in args.seeds:
        a, b = (run_tree(tree, seed, args.workload) for tree in args.trees)
        if len(a) != len(b):
            print(f"seed {seed}: {len(a)} {what} against {len(b)}")
            return 1
        for line_a, line_b in zip(a, b):
            compared += 1
            if line_a != line_b:
                differ += 1
                print("differs: seed %s item %s" % tuple(line_a.split()[:2]))
    print(f"{args.workload}: {compared} {what} compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
