"""Set-up time of a fresh process: import gaitlab, compute each leg's offsets
from its standing window, and initialise each leg's orientation filter.

The standing windows arrive on stdin as one JSON header line (sample counts
per leg) followed by the raw float64 arrays, so that nothing but the standard
library is loaded before the clock starts. Prints the elapsed seconds.
`run.py` starts this script several times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    counts = json.loads(sys.stdin.buffer.readline())
    payload = sys.stdin.buffer.read()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    start = time.perf_counter()
    import numpy as np

    import gaitlab.calibrate  # noqa: F401  (the benchmark uses all five modules)
    import gaitlab.core  # noqa: F401
    import gaitlab.events  # noqa: F401
    from gaitlab.orientation import filter_init
    from gaitlab.signal import BendStream, ImuStream, compute_offsets

    values = np.frombuffer(payload, dtype=np.float64)
    pos = 0

    def take(n, width=1):
        nonlocal pos
        out = values[pos : pos + n * width]
        pos += n * width
        return out.reshape(n, width) if width > 1 else out

    for n_imu, n_bend in counts:
        imu = ImuStream(take(n_imu), take(n_imu, 3), take(n_imu, 3))
        bend = BendStream(take(n_bend), take(n_bend))
        compute_offsets(imu, bend)
        filter_init()
    elapsed = time.perf_counter() - start
    if pos != len(values):
        sys.exit(f"setup_probe: {len(values) - pos} unread values on stdin")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
