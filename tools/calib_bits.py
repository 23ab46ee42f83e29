"""Compare two source trees' calibration outputs bit for bit over whole cohorts.

    python tools/calib_bits.py PARENT_TREE CHANGED_TREE [--seeds 3131 8484]

Each tree is a checkout's root (it holds `src/gaitlab` and `gaitbench`).
For every user of each seed's benchmark cohort (`gaitbench.synth.make_cohort`
with the `calib_cohort` workload's size), a child process on that tree runs
the benchmark's own `calibrate_user` and prints one line of hex: the fitted
parameters, both SSEs, the degenerate flag, the four angle biases, the test
split's step lengths and every a-priori RLS prediction. The script prints
how many users were compared and which differ, and exits 1 if any does.

    python tools/calib_bits.py --dump SEED

prints those lines for the gaitlab and gaitbench on `sys.path`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys


def dump(seed: int) -> None:
    import numpy as np

    from gaitbench.run import COHORT_STEPS, COHORT_USERS
    from gaitbench.synth import make_cohort
    from gaitbench.tracing import NullTracer
    from gaitbench.workloads import calibrate_user

    def hexes(values) -> str:
        return np.asarray(values, dtype=np.float64).tobytes().hex()

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


def run_tree(tree: str, seed: int) -> list[str]:
    here = os.path.abspath(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), tree]))
    done = subprocess.run(
        [sys.executable, here, "--dump", str(seed)],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return done.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="the two checkouts to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3131, 8484])
    parser.add_argument("--dump", type=int, metavar="SEED", help="print one seed's lines")
    args = parser.parse_args()
    if args.dump is not None:
        dump(args.dump)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, or --dump SEED")
    differ = compared = 0
    for seed in args.seeds:
        a, b = (run_tree(tree, seed) for tree in args.trees)
        if len(a) != len(b):
            print(f"seed {seed}: {len(a)} users against {len(b)}")
            return 1
        for line_a, line_b in zip(a, b):
            compared += 1
            if line_a != line_b:
                differ += 1
                print("differs: seed %s user %s" % tuple(line_a.split()[:2]))
    print(f"{compared} users compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
