"""The chain's compiled loops, their Python twins, the loader that picks one,
and the free list that whole-recording outputs take their memory from.

The loops of the chain that run once per sample or once per event run in C
wherever a C compiler is found: the Madgwick filter of
`orientation.madgwick_batch` (`loop`), the minima detector of
`events.MinimaDetector.feed_derivative` (`minima`), the step segmenter of
`events.StepSegmenter` (`segment`), the decimating boxcar of
`signal.smoothed_block` (`boxcar`), the row loops of
`signal.apply_offsets` (`offset`) and `orientation.remap_mounting`
(`rotate`), and the standing-window selection of `signal.compute_offsets`
(`medians`). Their source, `_kernel.c`, is one CPython extension module
with those entry points. Each has a Python twin here, `_madgwick_loop`,
`_minima_loop`, `_segment_loop`, `_boxcar_loop`, `_offset_loop`,
`_rotate_loop` and `_medians_loop`, that takes the same arguments and
returns the same values: the kernel's oracle, and its fallback wherever the
kernel cannot be built or loaded (no compiler or no headers, a read-only
package directory). `loops()` returns the C module where it loads and
otherwise `PYTHON`, the twins under the C names, so each stage makes the
same call, `loops().loop(...)`, `.minima(...)`, `.segment(...)` and so on,
either way.

The first `loops()` call in a process loads the module from the package's
`__pycache__/`. It is named by a digest of the source, the compiler flags
and the interpreter, and by one of the compiler (`_load_kernel`), and is
first compiled there with the system C compiler (`cc`) and the
interpreter's headers (`Python.h`) if it is not there yet. Importing this
module builds and loads nothing, and a load that finds the module built
imports nothing but the builtin SHA-256 (`subprocess` and `sysconfig` only
for a build): about 1.5 ms on a 2-vCPU x86-64 VM. The entry points take
the arrays as buffers, without copying, so a 10-sample live chunk pays
about as much to call the kernel as to run it.

Each C loop does its twin's operations on the same operands in the same
order, and the kernel is built without floating-point contraction or
reassociation, so the two give the same bits. IEEE arithmetic rounds each
operation on its own, so when an operation runs does not change its result,
and the filter's kernel runs two of them at other points of its loop, to
keep them off the per-sample quaternion recurrence:
- The gain's divide is a branch: `beta / gradient_ref` is divided once per
  call and `beta / ns` only on a sample whose gradient norm exceeds
  `gradient_ref`, the same operands as the twin's
  `beta / (ns if ns > gradient_ref else gradient_ref)`.
- The hip angle's `atan2` runs a fixed lag of samples (`ANGLE_LAG` in
  `_kernel.c`) behind the recurrence, in the same loop, on the numerator
  and denominator the recurrence stored, which it reads and never feeds
  back. So the CPU runs it in the shadow of the recurrence's latency-bound
  chain, on one thread.

The filter takes accel in g and gyro in deg/s and writes the hip angles in
degrees: each loop multiplies per sample by `DEG` and by `_DEG_PER_RAD`, the
multiplies numpy's `gyro * DEG` and `np.degrees` would do, so
`madgwick_batch` allocates nothing but its output. The detector's state is
five plain numbers in both languages, and the segmenter's seven. The
segmenter reads each paired angle from four `(values, t0, rate)` buffers at
`UniformSeries.index_near`'s sample, rounded half to even and clamped as a
float; only its Python loop also takes a callable, so the kernel calls no
function of its caller's. The kernel's boxcar sums each window in the
order of numpy's contiguous add reduction, so its means are
`np.add.reduce`'s bits. `offset` subtracts once per element, as numpy
does, and `rotate` sums each output as ((0.0 + x m0j) + y m1j) + z m2j,
which for the mounts' signed permutations gives numpy's `@` bits.
`medians` selects each channel's two middle order statistics and then the
middle pair of its absolute deviations from the median, the values numpy's
partition puts in place, with -0.0 read as +0.0 on both sides because
which of two equal samples a selection puts in place is its own choice;
`pair_median` turns a middle pair into np.median's value.

A whole recording's stage outputs, from `signal.apply_offsets`,
`orientation.remap_mounting` and `orientation.madgwick_batch`, are arrays of
hundreds of kilobytes, and a process analysing one recording after another
would free them and then fault fresh pages in for the next (malloc hands
the top of its heap back to the system). `empty(shape)` gives such an
output, from BLOCK_MIN_BYTES (64 KiB) on, memory from a free list of
released blocks (a slab cache; Bonwick, USENIX Summer 1994): the array's
`.base` is a `_Block` holder whose `__del__`, once no array, view or
memoryview of it is left, puts the memory back on the list, which keeps at
most BLOCK_POOL_COUNT (16) blocks of BLOCK_POOL_BYTES (64 MiB) together,
and the next output of about its size takes it. It is the same list
whichever loops run: `empty` never loads the kernel. A live chunk's arrays,
about ten rows, stay far below the threshold and stay `np.empty`'s. A block
is handed out again only once nothing refers to it, and a take is atomic
(it holds the list's lock, which a release never takes), so no live array
shares memory with a new one, on any thread; each stage writes every
element of its output before returning it, so which memory an output takes
cannot change its bits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

DEG = math.pi / 180.0

# Radians to degrees, as np.degrees multiplies.
_DEG_PER_RAD = 180.0 / math.pi

# The dtype the stages convert their inputs to: np.asarray takes an instance
# about 0.03 us faster than the type np.float64, some 34 times a live chunk.
F64 = np.dtype(np.float64)


def _madgwick_loop(accel, gyro, out, dt, w, x, y, z, accel_rejected, beta, gradient_ref):
    """The filter loop in Python: the fallback and the oracle of the kernel's `loop`.

    Takes what the kernel's `loop` takes: (N, 3) accel (g) and gyro (deg/s),
    the array of N that receives the hip angles (deg), the time step, the
    incoming state's five fields and the gain constants. Returns the state
    after the last sample as the same five plain values.
    """
    angles = []
    sqrt = math.sqrt
    atan2 = math.atan2
    isfinite = math.isfinite
    accel_used = not accel_rejected
    # The loop runs on plain floats for throughput; `gyro * DEG` is the
    # kernel's per-sample multiply, done for all samples at once.
    for (ax, ay, az), (gx, gy, gz) in zip(accel.tolist(), (gyro * DEG).tolist()):
        if not (isfinite(gx) and isfinite(gy) and isfinite(gz)):
            gx = gy = gz = 0.0
        an = sqrt(ax * ax + ay * ay + az * az)
        accel_used = an > 0.0 and isfinite(ax) and isfinite(ay) and isfinite(az)
        if accel_used:
            axn = ax / an
            ayn = ay / an
            azn = az / an
            _2w = 2.0 * w
            _2x = 2.0 * x
            _2y = 2.0 * y
            _2z = 2.0 * z
            # Objective: predicted gravity in the sensor frame minus measurement.
            f1 = _2x * z - _2w * y - axn
            f2 = _2w * x + _2y * z - ayn
            f3 = 1.0 - _2x * x - _2y * y - azn
            s0 = -_2y * f1 + _2x * f2
            s1 = _2z * f1 + _2w * f2 - 2.0 * _2x * f3
            s2 = -_2w * f1 + _2z * f2 - 2.0 * _2y * f3
            s3 = _2x * f1 + _2y * f2
            ns = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
            if ns > 0.0:
                k = beta / (ns if ns > gradient_ref else gradient_ref)
                c0 = k * s0
                c1 = k * s1
                c2 = k * s2
                c3 = k * s3
            else:
                c0 = c1 = c2 = c3 = 0.0
        else:
            c0 = c1 = c2 = c3 = 0.0

        qdw = 0.5 * (-x * gx - y * gy - z * gz) - c0
        qdx = 0.5 * (w * gx + y * gz - z * gy) - c1
        qdy = 0.5 * (w * gy - x * gz + z * gx) - c2
        qdz = 0.5 * (w * gz + x * gy - y * gx) - c3

        w += qdw * dt
        x += qdx * dt
        y += qdy * dt
        z += qdz * dt
        inv = 1.0 / sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w * inv, x * inv, y * inv, z * inv
        angles.append(
            atan2(2.0 * (x * z - w * y), 1.0 - 2.0 * (x * x + y * y)) * _DEG_PER_RAD
        )
    out[:] = angles
    return w, x, y, z, not accel_used


def _minima_loop(
    values, derivs, i, d_prev, pending, run_max, last_accept_t, prominence, refractory, t0, rate
):
    """The detector loop in Python: the fallback and the oracle of the kernel's `minima`.

    Takes the series, the derivatives, the detector's state as five numbers
    and the settings. Returns the state after the derivatives processed, the
    confirmed minima as `(index, t, value)` and whether the last derivative
    processed outran the series; the loop stops there, with that
    derivative's index and value in the state.
    """
    found = []
    s = values
    n = len(s)
    nxt = i
    for d in derivs.tolist():
        i = nxt
        nxt = i + 1
        before, d_prev = d_prev, d
        if i == 0:
            continue
        if i >= n:
            return nxt, d_prev, pending, run_max, last_accept_t, found, True
        if pending < 0:
            if s[i - 1] > run_max:
                run_max = s[i - 1]
            if d > 0.0 and before <= 0.0:
                j = i - 1 if s[i - 1] <= s[i] else i
                t_j = t0 + j / rate
                if t_j - last_accept_t >= refractory and run_max - s[j] >= prominence:
                    pending = j
        else:
            j = pending
            if s[i] < s[j]:
                pending = i
            elif s[i] - s[j] >= prominence:
                last_accept_t = t0 + j / rate
                found.append((j, last_accept_t, s[j]))
                pending = -1
                run_max = s[i]
    return nxt, d_prev, pending, run_max, last_accept_t, found, False


# The quad's series in the order a buffer sampler lists them, index
# 2 * side + (1 for a knee), which is also `MinimumEvent.sort_key`'s order
# for events at one time; and the sides' names by that side index, which
# the segmenter's state holds as 0 or 1.
SEGMENT_SERIES = ("hip_L", "knee_L", "hip_R", "knee_R")
SEGMENT_SIDES = ("L", "R")


def _segment_loop(events, sampler, state, timeout):
    """The step segmenter in Python: the fallback and the oracle of the kernel's `segment`.

    Takes the minimum events in `sort_key` order, the sampler, the
    segmenter's state (pending, side, t, beta_f, alpha_f, last_front,
    count) and the back-event timeout. The sampler is four `(values, t0,
    rate)` series in SEGMENT_SERIES order, read at
    `UniformSeries.index_near`'s sample: round((t - t0) * rate) half to
    even, clamped to the series while still a float. This loop alone also
    takes a callable `sampler(series_id, t)`, as the benchmark's own live
    session passes, called for each knee event and each hip event that
    completes a step. Returns the state after the events, one row (count,
    front side, alpha_f, beta_f, alpha_b, beta_b, t_front, t_back) per
    completed step and one tuple per diagnostic: its code, the index of its
    message in `events._DIAGNOSTICS`, and the values the message prints.
    """
    pending, p_side, p_t, beta_f, alpha_f, last_front, count = state
    sides = SEGMENT_SIDES
    if callable(sampler):
        def sample(k, t):
            return sampler(SEGMENT_SERIES[k], t)
    else:
        buffers = [(values, t0, rate, len(values) - 1) for values, t0, rate in sampler]

        def sample(k, t):
            values, t0, rate, last = buffers[k]
            r = round((t - t0) * rate, 0)  # a float, so +-inf and NaN are clamped too
            return float(values[(int(r) if r < last else last) if r > 0.0 else 0])

    rows, diags = [], []
    for series, _, t, value in events:
        side = 0 if series.endswith("L") else 1
        if pending and t - p_t > timeout:
            diags.append((0, sides[p_side], p_t, timeout))
            pending = False
        if series.startswith("knee"):
            if pending:
                diags.append((1, sides[p_side], p_t, sides[side]))
            alpha_f = sample(2 * side, t)
            pending, p_side, p_t, beta_f = True, side, t, value
            continue
        # a hip minimum
        if not pending:
            continue
        if side == p_side:
            diags.append((2, sides[side], t))
            continue
        if t <= p_t:
            diags.append((3, sides[side], t))
            continue
        if p_side == last_front:
            diags.append((4, sides[p_side], p_t))
            pending = False
            last_front = -1  # the next step resyncs the stream
            continue
        beta_b = sample(2 * side + 1, t)
        rows.append((count, sides[p_side], alpha_f, beta_f, value, beta_b, p_t, t))
        count += 1
        last_front = p_side
        pending = False
    return (pending, p_side, p_t, beta_f, alpha_f, last_front, count), rows, diags


def _offset_loop(values, offset, out):
    """values - offset in numpy: the fallback and the oracle of the kernel's `offset`.

    Takes what the kernel takes, float64 arrays: values of at least one
    dimension, an offset of one row's shape (a float for 1-D values) and an
    out of the values' shape; other shapes raise ValueError, as the kernel
    does, rather than broadcast.
    """
    if values.ndim < 1 or np.shape(offset) != values.shape[1:] or out.shape != values.shape:
        raise ValueError(
            f"offset needs an offset of shape {values.shape[1:]} and an out of shape "
            f"{values.shape}, got {np.shape(offset)} and {out.shape}"
        )
    np.subtract(values, offset, out=out)


def _rotate_loop(values, matrix, out):
    """values @ matrix in numpy: the fallback and the oracle of the kernel's `rotate`.

    An inf meets a zero of the mounts' matrices in the product, which gives
    NaN as the kernel does, without numpy's warning. The bits are the
    kernel's, but for which NaN a row that meets two of them ends in.
    """
    with np.errstate(invalid="ignore"):
        np.matmul(values, matrix, out=out)


def _boxcar_loop(values, out, m, k_start):
    """The boxcar in numpy: the fallback and the oracle of the kernel's `boxcar`.

    Takes what the kernel's `boxcar` takes: the C-contiguous 1-D float64
    value buffer, the float64 array that receives outputs
    [k_start, k_start + len(out)), the factor M and k_start. Lays the
    windows as one strided view over the samples they cover and divides
    their np.add.reduce by 2M; numpy reduces each contiguous window in its
    pairwise order, which the kernel reproduces.
    """
    seg = values[m * k_start : m * (k_start + len(out)) + m]
    step = seg.strides[0]
    window = np.ndarray((len(out), 2 * m), seg.dtype, seg, strides=(m * step, step))
    np.divide(np.add.reduce(window, axis=-1), 2 * m, out=out)


def pair_median(lo, hi, n: int):
    """np.median's value from the middle pair `lo`, `hi` of n values.

    The mean of the one or two middle values, a sum that starts from +0.0
    divided by the count, as np.mean takes it, so a median of -0.0 comes
    out +0.0. Takes floats or arrays of them.
    """
    return 0.0 + lo if n % 2 else (0.0 + lo + hi) / 2


def _middle_pair(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two middle values of each row (the middle one twice for an odd
    length), partitioning `rows` in place.

    One partition along the last axis puts them in place. Each is returned
    plus +0.0, which turns -0.0 into +0.0: which of two equal samples the
    partition puts in place is its own choice, so the sign of a zero tie is
    not fixed.
    """
    h = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        rows.partition(h)
        return 0.0 + rows[..., h], 0.0 + rows[..., h]
    rows.partition((h - 1, h))
    return 0.0 + rows[..., h - 1], 0.0 + rows[..., h]


def _medians_loop(window):
    """The medians in numpy: the fallback and the oracle of the kernel's `medians`.

    Takes what the kernel takes, an (N,) or (N, C) float64 window, N >= 1,
    one channel when 1-D; other shapes raise ValueError. Returns None if a
    sample is NaN or inf. Otherwise returns three lists of C floats: each
    channel's lower and upper middle values, -0.0 read as +0.0, and the
    median of its absolute deviations from its median, np.median's bits.
    The window is left unchanged.
    """
    c = window.shape[1] if window.ndim == 2 else 1
    if window.ndim not in (1, 2) or len(window) == 0:
        raise ValueError(
            f"medians needs an (n,) or (n, c) window of n >= 1 doubles, got {window.shape}"
        )
    rows = window.reshape(len(window), c).T.copy()
    if not np.isfinite(rows).all():
        return None
    n = rows.shape[1]
    lo, hi = _middle_pair(rows)
    # The deviations of the partitioned rows: the same values in another
    # order, so the same median.
    deviations = np.abs(rows - pair_median(lo, hi, n)[:, None])
    return lo.tolist(), hi.tolist(), pair_median(*_middle_pair(deviations), n).tolist()


# The twins under the kernel's entry-point names.
PYTHON = SimpleNamespace(
    loop=_madgwick_loop,
    minima=_minima_loop,
    segment=_segment_loop,
    boxcar=_boxcar_loop,
    offset=_offset_loop,
    rotate=_rotate_loop,
    medians=_medians_loop,
)

# From this many bytes on, `empty` takes its memory from the free list. On
# the batch chain (seed 101, getrusage around each stage) any threshold from
# 4 to 256 KiB took the stages' minor faults from about 210 per recording to
# 0; 64 KiB takes a 60 s leg's 120 KB hip angles too, while a live chunk's
# 240-byte arrays keep np.empty, about 0.3 us a call against about 3 us for
# an array on a recycled block, taken and released (timeit, 2-vCPU VM).
BLOCK_MIN_BYTES = 64 * 1024

# The free list holds at most BLOCK_POOL_COUNT blocks of at most
# BLOCK_POOL_BYTES together. A 60 s two-leg recording takes ten blocks,
# eight (15000, 3) arrays and two hip angles, but a stage's output is
# released while the next leg runs, so eight blocks of 2.4 MB in all serve
# it (measured on the batch chain). The caps hold twice that count, and
# every block of a recording of up to about 28 minutes.
BLOCK_POOL_COUNT = 16
BLOCK_POOL_BYTES = 64 << 20

# The free list: released blocks as (capacity in bytes, (address, False),
# np.uint8 memory), most recently released last. A release appends, which
# is atomic; a take scans and pops under _pool_lock, and nothing else
# removes, so an append during a scan moves no block the scan has yet to
# check.
_pool: list[tuple] = []
_pool_lock = threading.Lock()


class _Block:
    """The holder of one output's memory, a block of the free list.

    `np.asarray` makes an array of `shape` float64s over the start of the
    block from `__array_interface__` and keeps the holder as its `.base`,
    so the holder lives as long as any array, view or memoryview of it.
    """

    __slots__ = ("__array_interface__", "_block")

    def __init__(self, block, shape):
        self._block = block
        self.__array_interface__ = {
            "shape": shape, "typestr": F64.str, "data": block[1], "version": 3,
        }

    # The defaults bind what a release at interpreter exit needs, after the
    # module's globals may have been set to None.
    def __del__(
        self, pool=_pool, max_count=BLOCK_POOL_COUNT, max_bytes=BLOCK_POOL_BYTES,
        capacity=operator.itemgetter(0),
    ):
        # Takes no lock, so a release inside `empty` (a collection run
        # there) cannot wait for it. Releases in several threads at once can
        # each pass the caps before the others append, so the list can pass
        # a cap by a block per such thread; one thread keeps to them.
        block = self._block
        if len(pool) < max_count and block[0] + sum(map(capacity, pool)) <= max_bytes:
            pool.append(block)


def empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of `shape` (an int or a tuple).

    From BLOCK_MIN_BYTES on, its memory is a block of the free list: the
    most recently released one whose capacity is at least the request and
    under twice it, or else a new `np.empty` of uint8. The array's `.base`
    is the block's `_Block` holder, which puts the block back on the list
    once the array and every view of it have gone. A smaller array is
    `np.empty(shape)`.
    """
    # A class test, not isinstance, and no math.prod for the stages' int, (N,)
    # and (N, 3) shapes: 0.1 us of a live chunk's 0.3 us call, a dozen a chunk.
    if shape.__class__ is int:
        n = shape
    elif len(shape) == 1:
        n = shape[0]
    else:
        n = shape[0] * shape[1] if len(shape) == 2 else math.prod(shape)
    nbytes = 8 * n
    if nbytes < BLOCK_MIN_BYTES:
        return np.empty(shape)
    block = None
    with _pool_lock:
        for k in range(len(_pool) - 1, -1, -1):
            cap = _pool[k][0]
            if nbytes <= cap < 2 * nbytes:
                block = _pool.pop(k)
                break
    if block is None:
        memory = np.empty(nbytes, np.uint8)
        block = nbytes, (memory.ctypes.data, False), memory
    return np.asarray(_Block(block, (n,) if shape.__class__ is int else tuple(shape)))


_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# Contraction into fused multiply-adds or any reordering would change the
# bits, so the flags hold neither -ffast-math nor -march=native.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")

# Why the last kernel load failed, or None after one that succeeded.
_kernel_error: str | None = None


def _remove_stale_builds(path: Path, suffix: str) -> None:
    """Unlink every `_kernel_c.*<suffix>` in `path`'s directory but `path`.

    Called right after `path` is built, so the builds of older sources,
    flags or compilers do not pile up. Temporary files (perhaps another
    process's build in progress) and other ABIs' builds end otherwise, so
    they stay. Two interpreters with one suffix but different installations,
    or two compilers, evict each other's build, and each rebuilds on its
    next first load. An unlink that fails (another process removed the file
    first, or the platform keeps a loaded file) is skipped.
    """
    for old in path.parent.glob(f"_kernel_c.*{suffix}"):
        if old != path:
            try:
                old.unlink()
            except OSError:
                pass


def _sha256(data: bytes) -> str:
    """The SHA-256 of `data` in hex.

    From the interpreter's builtin module (`_sha2` from Python 3.12 on,
    `_sha256` before), which imports in microseconds where `hashlib` takes
    about 6 ms; from `hashlib` where neither is built in.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _build(path: Path, compiler: str) -> str | None:
    """Compile `_kernel.c` into `path` with `compiler`; the compiler's
    complaint if it fails, else None.

    It compiles into a temporary file that is then renamed into place, so
    processes building at once never load a partial file.
    """
    # Only for a build: together they take 7-10 ms to import.
    import subprocess
    import sysconfig

    include = sysconfig.get_paths()["include"]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel_c.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *_KERNEL_FLAGS, f"-I{include}", "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
            capture_output=True,
        )
        if done.returncode:
            return f"{compiler} failed: {done.stderr.decode(errors='replace')}"
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


def _lacks_its_runtime(path: Path) -> bool:
    """Whether the build at `path` calls AddressSanitizer's runtime
    (`__asan_init`) and this process has not loaded it, as where it is not
    preloaded: loading the build would end the process ("ASan runtime does
    not come first")."""
    if b"__asan_init" not in path.read_bytes():
        return False
    import ctypes  # only for such a build, found where no compiler is

    return not hasattr(ctypes.CDLL(None), "__asan_init")


def _load_kernel(cache_dir: Path = _KERNEL_CACHE, compiler: str = "cc"):
    """Load the C kernel from cache_dir, compiling `_kernel.c` there if needed.

    The extension module is named `_kernel_c.<key>.<cc><suffix>`. The key
    is a digest of the source, the flags and the interpreter (its version
    string and installation prefix, which fix the headers it builds
    against); <cc> is one of the compiler `shutil.which` finds, by its
    resolved path, size and mtime, so builds by two compilers (a sanitizing
    wrapper and a plain `cc`, say) never share a name; and the suffix is
    the interpreter's extension suffix, so an interpreter with another ABI
    never loads it. Where the compiler is not found, a build of the key by
    any compiler is loaded, but not one that calls ASan's runtime where
    this process has not loaded it (`_lacks_its_runtime`), which would end
    the process at load. A build (`_build`) is followed by the removal of
    the older builds with the same suffix (`_remove_stale_builds`); a load
    that compiles nothing removes nothing, and imports neither
    `subprocess`, `sysconfig` nor `hashlib`. Returns the module, whose
    `loop`, `minima`, `segment`, `boxcar`, `offset`, `rotate` and `medians`
    run the filter, the minima detector, the step segmenter, the decimating
    boxcar, the offset and mount-rotation row loops and the standing-window
    medians, or `PYTHON` when the build or the load fails, with the reason
    in `_kernel_error`.
    """
    global _kernel_error
    try:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        interpreter = "\0".join((*_KERNEL_FLAGS, sys.version, sys.base_prefix, suffix))
        key = _sha256(_KERNEL_SOURCE.read_bytes() + interpreter.encode())[:16]
        found = shutil.which(compiler)
        if found is None:
            builds = cache_dir.glob(f"_kernel_c.{key}.*{suffix}")
            path = min((p for p in builds if not _lacks_its_runtime(p)), default=None)
            if path is None:
                raise FileNotFoundError(
                    f"no C compiler {compiler!r} found, and no kernel built that loads "
                    "without ASan's runtime"
                )
        else:
            cc = os.stat(found)
            cc_id = f"{os.path.realpath(found)}\0{cc.st_size}\0{cc.st_mtime_ns}"
            path = cache_dir / f"_kernel_c.{key}.{_sha256(cc_id.encode())[:8]}{suffix}"
            if not path.exists():
                if error := _build(path, found):
                    _kernel_error = error
                    return PYTHON
                _remove_stale_builds(path, suffix)
        loader = importlib.machinery.ExtensionFileLoader("gaitlab._kernel_c", str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader)
        )
        loader.exec_module(module)
    except (OSError, ImportError) as exc:
        _kernel_error = f"{type(exc).__name__}: {exc}"
        return PYTHON
    _kernel_error = None
    return module


# The C module or PYTHON, built and loaded by the first call, not at import.
loops = functools.cache(_load_kernel)
