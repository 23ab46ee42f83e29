import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import re
import sysconfig
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab import _kernel, orientation
from gaitlab._kernel import _madgwick_loop, _rotate_loop
from gaitlab.errors import GaitInputError
from gaitlab.orientation import (
    BETA,
    GRADIENT_REF,
    MOUNTING_AXES,
    OrientationFilterState,
    filter_init,
    madgwick_batch,
    remap_mounting,
)

DT = 0.04  # 25 Hz

# The kernel takes each hip angle's atan2 this many samples behind the
# recurrence, and the last ones after the loop.
LAG = int(re.search(r"#define ANGLE_LAG (\d+)", _kernel._KERNEL_SOURCE.read_text()).group(1))


def gravity_for(tilt_deg):
    r = math.radians(tilt_deg)
    return np.array([math.sin(r), 0.0, math.cos(r)])


def run_static(tilt_deg, seconds):
    n = int(round(seconds / DT))
    accel = np.tile(gravity_for(tilt_deg), (n, 1))
    gyro = np.zeros((n, 3))
    return madgwick_batch(accel, gyro, DT, filter_init())


class TestMadgwick:
    def test_stationary_identity_fixed_point(self):
        angles, state = run_static(0.0, 2.0)
        assert np.all(angles == 0.0)
        assert state[:4] == (1.0, 0.0, 0.0, 0.0)

    def test_static_tilt_converges(self):
        angles, _ = run_static(20.0, 5.0)
        assert angles[-1] == pytest.approx(20.0, abs=0.5)

    def test_static_convergence_across_range(self):
        for tilt in (-60.0, -30.0, -5.0, 10.0, 45.0, 60.0):
            angles, _ = run_static(tilt, 5.0)
            assert angles[-1] == pytest.approx(tilt, abs=0.5), f"tilt {tilt}"

    def test_constant_rate_tracks(self):
        # Hip advancing at +10 deg/s for 1 s with consistent accel and gyro.
        n = 25
        theta = 10.0 * (np.arange(1, n + 1) * DT)
        accel = np.stack([np.sin(np.radians(theta)), np.zeros(n), np.cos(np.radians(theta))], axis=1)
        gyro = np.stack([np.zeros(n), np.full(n, -10.0), np.zeros(n)], axis=1)
        angles, _ = madgwick_batch(accel, gyro, DT, filter_init())
        assert angles[-1] == pytest.approx(10.0, abs=1.0)

    def test_gyro_bias_rejected(self):
        n = 750
        accel = np.tile([0.0, 0.0, 1.0], (n, 1))
        biased = np.tile([0.0, 1.0, 0.0], (n, 1))
        angles, _ = madgwick_batch(accel, biased, DT, filter_init())
        assert abs(angles[-1]) < 1.0

    def test_unit_norm_preserved_long_run(self):
        rng = np.random.default_rng(0)
        n = 100_000
        accel = rng.normal([0, 0, 1], 0.05, (n, 3))
        gyro = rng.normal(0.0, 5.0, (n, 3))
        _, state = madgwick_batch(accel, gyro, DT, filter_init())
        assert abs(math.hypot(*state[:4]) - 1.0) < 1e-6

    def test_zero_accel_falls_back_to_gyro(self):
        angles, state = madgwick_batch([[0.0, 0.0, 0.0]], [[0.0, -10.0, 0.0]], DT, filter_init())
        assert state.accel_rejected
        assert angles[0] == pytest.approx(10.0 * DT, abs=1e-4)

    def test_empty_chunk_keeps_accel_rejected(self):
        _, state = madgwick_batch([[0.0, 0.0, 0.0]], [[0.0, -10.0, 0.0]], DT, filter_init())
        angles, after = madgwick_batch(np.zeros((0, 3)), np.zeros((0, 3)), DT, state)
        assert len(angles) == 0
        assert after == state

    def test_batch_matches_single_updates(self):
        rng = np.random.default_rng(1)
        accel = rng.normal([0, 0, 1], 0.02, (200, 3))
        gyro = rng.normal(0.0, 3.0, (200, 3))
        accel[57] = 0.0  # one gyro-only sample inside the run
        angles, batch_state = madgwick_batch(accel, gyro, DT, filter_init())
        state = filter_init()
        for a, g in zip(accel, gyro):
            state = madgwick_batch(a[np.newaxis], g[np.newaxis], DT, state)[1]
        assert batch_state[:4] == state[:4]
        # Live processing feeds the same samples in chunks, carrying the state.
        for chunk in (1, 7, 10):
            state = filter_init()
            parts = []
            for i in range(0, len(accel), chunk):
                part, state = madgwick_batch(
                    accel[i : i + chunk], gyro[i : i + chunk], DT, state
                )
                parts.append(part)
            assert np.array_equal(np.concatenate(parts), angles), f"chunk {chunk}"
            assert state[:4] == batch_state[:4], f"chunk {chunk}"
            assert state.accel_rejected == batch_state.accel_rejected, f"chunk {chunk}"

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        accel = rng.normal([0, 0, 1], 0.02, (500, 3))
        gyro = rng.normal(0.0, 3.0, (500, 3))
        a1, s1 = madgwick_batch(accel, gyro, DT, filter_init())
        a2, s2 = madgwick_batch(accel, gyro, DT, filter_init())
        assert np.array_equal(a1, a2)
        assert s1[:4] == s2[:4]

    def test_numpy_scalar_dt_runs_in_double(self):
        rng = np.random.default_rng(6)
        accel = rng.normal([0, 0, 1], 0.05, (50, 3))
        gyro = rng.normal(0.0, 20.0, (50, 3))
        dt = np.float32(DT)
        got = madgwick_batch(accel, gyro, dt, filter_init())
        want = madgwick_batch(accel, gyro, float(dt), filter_init())
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    @pytest.mark.parametrize(
        "accel_shape, gyro_shape, dt",
        [
            ((10, 3), (10, 3), 0.0),
            ((10, 3), (10, 3), -0.004),
            ((10, 3), (11, 3), DT),
            ((10, 2), (10, 2), DT),
            ((30,), (30,), DT),
            ((10, 3, 1), (10, 3, 1), DT),
        ],
        ids=["dt_zero", "dt_negative", "length_mismatch", "two_columns", "flat", "three_dims"],
    )
    def test_batch_rejects_bad_input(self, accel_shape, gyro_shape, dt):
        accel = np.zeros(accel_shape)
        gyro = np.zeros(gyro_shape)
        with pytest.raises(GaitInputError):
            madgwick_batch(accel, gyro, dt, filter_init())

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_batch_rejects_non_finite_dt(self, dt):
        # dt = inf used to return all-NaN angles without an error.
        with pytest.raises(GaitInputError, match="dt"):
            madgwick_batch(np.zeros((10, 3)), np.zeros((10, 3)), dt, filter_init())


def random_recording(rng, n):
    """Walk-like accel (g) and gyro (deg/s) with zero-accel and non-finite rows."""
    accel = rng.normal([0.0, 0.0, 1.0], 0.1, (n, 3))
    gyro = np.cumsum(rng.normal(0.0, 20.0, (n, 3)), axis=0)
    rows = rng.choice(n, size=6, replace=False)
    accel[rows[0]] = 0.0
    accel[rows[1], 0] = np.nan
    accel[rows[2], 2] = -np.inf
    gyro[rows[3], 1] = np.nan
    gyro[rows[4], 0] = np.inf
    accel[rows[5]] = np.nan
    gyro[rows[5]] = np.nan
    return accel, gyro


def random_state(rng, accel_rejected=False):
    q = rng.normal(size=4)
    return OrientationFilterState(*(q / np.linalg.norm(q)).tolist(), accel_rejected)


def run(loop, accel, gyro, state):
    """Call a filter loop, the kernel's or the Python one, with the same arguments.

    Returns the hip angles (deg) it wrote and the state it returned.
    """
    out = np.empty(len(accel))
    return out, loop(accel, gyro, out, DT, *state, BETA, GRADIENT_REF)


def run_chunks(loop, accel, gyro, state, chunk):
    """Feed `loop` in chunks, with an empty chunk first and one after the first."""
    bounds = [(0, 0)] + [(i, i + chunk) for i in range(0, len(accel), chunk)]
    bounds.insert(2, (chunk, chunk))
    parts = []
    for start, stop in bounds:
        part, state = run(loop, accel[start:stop], gyro[start:stop], state)
        parts.append(part)
    return np.concatenate(parts), state


def assert_same_bits(got, want):
    """Angles and state equal bit for bit; NaN matches NaN and -0.0 does not match 0.0."""
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array(got[1][:4]).tobytes() == np.array(want[1][:4]).tobytes()
    assert got[1][4] == want[1][4]


def gradient_norms(accel, states):
    """The filter's objective-gradient norm at each sample, from the state before it."""
    w, x, y, z = np.array([s[:4] for s in states]).T
    a = accel / np.linalg.norm(accel, axis=1, keepdims=True)
    f1 = 2 * x * z - 2 * w * y - a[:, 0]
    f2 = 2 * w * x + 2 * y * z - a[:, 1]
    f3 = 1 - 2 * x * x - 2 * y * y - a[:, 2]
    s = (-2 * y * f1 + 2 * x * f2, 2 * z * f1 + 2 * w * f2 - 4 * x * f3,
         -2 * w * f1 + 2 * z * f2 - 4 * y * f3, 2 * x * f1 + 2 * y * f2)
    return np.sqrt(sum(c * c for c in s))


@pytest.fixture
def kernel(compiled_kernel):
    """The compiled filter loop (see conftest.py for when it skips)."""
    return compiled_kernel.loop


@pytest.fixture(scope="module")
def kernel_module(compiled_kernel, tmp_path_factory):
    """The extension module itself, built into a fresh cache directory."""
    cache = tmp_path_factory.mktemp("kernel")
    assert _kernel._load_kernel(cache) is not _kernel.PYTHON, _kernel._kernel_error
    (path,) = cache.iterdir()
    loader = importlib.machinery.ExtensionFileLoader("gaitlab._kernel_c", str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


class TestUnits:
    def test_degrees_are_one_multiply(self):
        # The loops take deg/s and write degrees, multiplying by DEG and by
        # 180 / pi per sample: the multiplies of `gyro * DEG` and
        # np.degrees, which madgwick_batch ran around the loop in radians.
        rng = np.random.default_rng(13)
        x = np.concatenate([
            rng.uniform(-math.pi, math.pi, 100_000),
            rng.normal(0.0, 1e3, 1000),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308],
        ])
        with np.errstate(over="ignore"):  # 1e308 degrees is inf either way
            assert np.degrees(x).tobytes() == (x * _kernel._DEG_PER_RAD).tobytes()


class TestNonFiniteSamples:
    @pytest.mark.parametrize("stream", ["accel", "gyro"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_bad_sample_leaves_every_output_finite(self, stream, value):
        rng = np.random.default_rng(3)
        accel = rng.normal([0, 0, 1], 0.05, (300, 3))
        gyro = rng.normal(0.0, 20.0, (300, 3))
        {"accel": accel, "gyro": gyro}[stream][120, 1] = value
        angles, state = madgwick_batch(accel, gyro, DT, filter_init())
        assert np.isfinite(angles).all()
        assert np.isfinite(state[:4]).all()
        oracle = run(_madgwick_loop, accel, gyro, filter_init())
        assert_same_bits((angles, state), oracle)

    def test_bad_accel_row_is_a_zero_accel_row(self):
        rng = np.random.default_rng(4)
        accel = rng.normal([0, 0, 1], 0.05, (50, 3))
        gyro = rng.normal(0.0, 20.0, (50, 3))
        zeroed = accel.copy()
        zeroed[20] = 0.0
        want = madgwick_batch(zeroed, gyro, DT, filter_init())
        for value in (np.nan, np.inf):
            accel[20, 0] = value
            got = madgwick_batch(accel[:21], gyro[:21], DT, filter_init())
            assert got[1].accel_rejected
            assert np.array_equal(got[0], want[0][:21])
            got = madgwick_batch(accel, gyro, DT, filter_init())
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_bad_gyro_row_is_a_zero_rate_row(self):
        rng = np.random.default_rng(5)
        accel = rng.normal([0, 0, 1], 0.05, (50, 3))
        gyro = rng.normal(0.0, 20.0, (50, 3))
        zeroed = gyro.copy()
        zeroed[20] = 0.0
        want = madgwick_batch(accel, zeroed, DT, filter_init())
        for value in (np.nan, -np.inf):
            gyro[20, 2] = value
            got = madgwick_batch(accel, gyro, DT, filter_init())
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]


class TestKernel:
    """The C kernel gives the Python loop's bits: angles, quaternion and flag."""

    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_equals_python_loop(self, kernel, seed):
        rng = np.random.default_rng(seed)
        accel, gyro = random_recording(rng, 400)
        state = random_state(rng, bool(seed % 2))
        want = run(_madgwick_loop, accel, gyro, state)
        assert np.isfinite(want[0]).all()
        got = run(kernel, accel, gyro, state)
        assert_same_bits(got, want)
        assert type(got[1]) is type(want[1]) is tuple
        assert [type(v) for v in got[1]] == [type(v) for v in want[1]] == [float] * 4 + [bool]
        for chunk in (1, 7, 10):
            for loop in (kernel, _madgwick_loop):
                assert_same_bits(run_chunks(loop, accel, gyro, state, chunk), want)

    # The kernel takes atan2 LAG samples behind the recurrence, and the last
    # min(n, LAG) angles after the loop.
    @pytest.mark.parametrize("n", [0, 1, LAG - 1, LAG, LAG + 1, 2 * LAG + 1, 15000])
    def test_every_length_around_the_angle_block(self, kernel, n):
        rng = np.random.default_rng(n)
        accel, gyro = random_recording(rng, max(n, 6))
        accel, gyro = accel[:n], gyro[:n]
        state = random_state(rng, True)
        want = run(_madgwick_loop, accel, gyro, state)
        got = run(kernel, accel, gyro, state)
        assert len(got[0]) == n
        assert_same_bits(got, want)

    def test_prefix_calls_give_the_oracle_prefix(self, kernel):
        # The filter is causal, so a call on the first m samples gives the
        # first m angles of the whole; m ends at every offset of two lag
        # windows, short of the lag and well past it.
        rng = np.random.default_rng(7)
        n = 10 * LAG
        accel, gyro = rng.normal([0, 0, 1], 0.5, (n, 3)), rng.normal(0, 200, (n, 3))
        state = random_state(rng)
        want = run(_madgwick_loop, accel, gyro, state)[0]
        for m in [*range(2 * LAG + 1), *range(n - 2 * LAG, n + 1)]:
            got = run(kernel, accel[:m], gyro[:m], state)[0]
            assert got.tobytes() == want[:m].tobytes(), m

    @pytest.mark.parametrize("chunk", [LAG - 1, LAG, LAG + 1])
    def test_chunks_that_split_an_angle_block(self, kernel, chunk):
        rng = np.random.default_rng(chunk)
        accel, gyro = random_recording(rng, 1000)
        accel[LAG - 1, 0] = np.nan
        gyro[LAG - 1, 2] = np.inf
        accel[LAG] = np.inf
        gyro[LAG, 1] = np.nan
        state = random_state(rng)
        want = run(_madgwick_loop, accel, gyro, state)
        assert np.isfinite(want[0]).all()
        assert_same_bits(run_chunks(kernel, accel, gyro, state, chunk), want)

    def test_a_long_call_takes_no_more_cpu_than_wall_time(self, kernel):
        # One thread: the process's CPU time over 50 calls of a 60 s leg at
        # 250 Hz stays within its wall time, give or take the clocks. The
        # best of five rounds, so that another thread of the process still
        # busy from an earlier test (a BLAS pool's spin-wait) cannot fail it.
        rng = np.random.default_rng(9)
        accel, gyro = rng.normal([0, 0, 1], 0.5, (15000, 3)), rng.normal(0, 200, (15000, 3))
        out = np.empty(15000)
        args = (DT, *filter_init(), BETA, GRADIENT_REF)
        rounds = []
        for _ in range(5):
            wall, cpu = time.perf_counter(), time.process_time()
            for _ in range(50):
                kernel(accel, gyro, out, *args)
            rounds.append((time.process_time() - cpu, time.perf_counter() - wall))
        assert min(cpu / wall for cpu, wall in rounds) <= 1.2, rounds

    def test_gradient_norm_crossing_the_reference_both_ways(self, kernel):
        # Settled on gravity the gradient norm is small and the gain
        # proportional; random accel directions push it above GRADIENT_REF,
        # where the kernel takes the gain's divide in its branch.
        rng = np.random.default_rng(12)
        settled = rng.normal([0.0, 0.0, 1.0], 0.002, (300, 3))
        random_dirs = rng.normal(0.0, 1.0, (300, 3))
        accel = np.concatenate([settled, random_dirs, settled[::-1]])
        gyro = rng.normal(0.0, 0.5, accel.shape)
        state = filter_init()
        want = run(_madgwick_loop, accel, gyro, state)
        assert_same_bits(run(kernel, accel, gyro, state), want)
        before = [state]
        for a, g in zip(accel[:-1], gyro[:-1]):
            before.append(run(_madgwick_loop, a[None], g[None], before[-1])[1])
        norms = gradient_norms(accel, before)
        above = norms > orientation.GRADIENT_REF
        assert ((norms > 0.0) & ~above).any() and above.any()
        steps = np.diff(above.astype(int))
        assert (steps == 1).any() and (steps == -1).any()

    @pytest.mark.parametrize("layout", ["read_only", "fortran", "column_view"])
    def test_any_array_layout_gives_the_oracle_bits(self, kernel, layout, python_loops):
        rng = np.random.default_rng(11)
        accel, gyro = random_recording(rng, 300)
        state = random_state(rng)
        want = run(_madgwick_loop, accel, gyro, state)

        def arrange(v):
            if layout == "read_only":
                v = v.copy()
                v.flags.writeable = False
                return v
            if layout == "fortran":
                return np.asfortranarray(v)
            wide = np.zeros((len(v), 7))
            wide[:, 2:5] = v
            return wide[:, 2:5]

        a, g = arrange(accel), arrange(gyro)
        assert not (layout == "column_view" and a.flags.c_contiguous)
        if a.flags.c_contiguous:
            assert_same_bits(run(kernel, a, g, state), want)
        else:
            # The entry point reads C-contiguous buffers only; madgwick_batch
            # hands it copies that are.
            with pytest.raises(ValueError, match="C-contiguous"):
                run(kernel, a, g, state)
        angles, end = madgwick_batch(arrange(accel), arrange(gyro), DT, state)
        assert_same_bits((angles, end), want)
        python_loops()
        angles, end = madgwick_batch(arrange(accel), arrange(gyro), DT, state)
        assert_same_bits((angles, end), want)

    @pytest.mark.parametrize(
        "accel_bytes, gyro_bytes, out_bytes",
        [(240, 240, 88), (240, 240, 72), (240, 216, 80), (216, 240, 80), (0, 0, 8), (36, 36, 12)],
        ids=["out_long", "out_short", "gyro_short", "accel_short", "inputs_empty", "partial_double"],
    )
    def test_mismatched_buffers_rejected_before_the_loop(
        self, kernel_module, accel_bytes, gyro_bytes, out_bytes
    ):
        out = bytearray(b"\x07" * out_bytes)
        with pytest.raises(ValueError):
            kernel_module.loop(
                bytes(accel_bytes), bytes(gyro_bytes), out, DT, 1.0, 0.0, 0.0, 0.0, False, 0.15, 0.1
            )
        assert out == bytearray(b"\x07" * out_bytes)

    def test_madgwick_batch_runs_the_kernel(self, kernel, monkeypatch):
        calls = []

        def counted(accel, *args):
            calls.append(len(accel))
            return kernel(accel, *args)

        monkeypatch.setattr(_kernel, "loops", lambda: SimpleNamespace(loop=counted))
        madgwick_batch(np.zeros((5, 3)), np.zeros((5, 3)), DT, filter_init())
        assert calls == [5]

    def test_failed_build_falls_back_to_python_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel, "_kernel_error", None)
        missing = str(tmp_path / "no-such-cc")
        assert _kernel._load_kernel(tmp_path, missing) is _kernel.PYTHON
        assert "no-such-cc" in _kernel._kernel_error
        monkeypatch.setattr(_kernel, "loops", functools.partial(_kernel._load_kernel, tmp_path, missing))
        rng = np.random.default_rng(10)
        accel, gyro = random_recording(rng, 200)
        angles, state = madgwick_batch(accel, gyro, DT, filter_init())
        want = run(_madgwick_loop, accel, gyro, filter_init())
        assert_same_bits((angles, state), want)
        assert list(tmp_path.iterdir()) == []

    def test_cached_kernel_loads_without_the_compiler(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel, "_kernel_error", None)
        assert _kernel._load_kernel(tmp_path) is not _kernel.PYTHON
        built = list(tmp_path.iterdir())
        assert len(built) == 1 and built[0].name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
        cached = _kernel._load_kernel(tmp_path, str(tmp_path / "no-such-cc"))
        assert cached is not _kernel.PYTHON, _kernel._kernel_error
        assert list(tmp_path.iterdir()) == built

    def test_no_compiler_skips_a_sanitizer_build(self, compiled_kernel, tmp_path, monkeypatch):
        # A build that calls ASan's runtime kills a process that has not
        # loaded it ("ASan runtime does not come first"), so with no
        # compiler to build a plain kernel the loader takes the Python
        # loops, unless the runtime is loaded, as under the sanitizer job's
        # preload. A copy of this process's build that ends in the runtime's
        # entry name stands for such a build.
        monkeypatch.setattr(_kernel, "_kernel_error", None)
        built = Path(compiled_kernel.__file__)
        (tmp_path / built.name).write_bytes(built.read_bytes() + b"__asan_init")
        loaded = _kernel._load_kernel(tmp_path, str(tmp_path / "no-such-cc"))
        if hasattr(ctypes.CDLL(None), "__asan_init"):
            assert loaded is not _kernel.PYTHON, _kernel._kernel_error
        else:
            assert loaded is _kernel.PYTHON
            assert "no-such-cc" in _kernel._kernel_error and "ASan" in _kernel._kernel_error

    def test_build_removes_older_builds_of_this_abi_only(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel, "_kernel_error", None)
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        stale = tmp_path / f"_kernel_c.0000000000000000{suffix}"
        in_progress = tmp_path / "_kernel_c.abcd1234.tmp"  # another process's build
        other_abi = tmp_path / "_kernel_c.0000000000000000.cpython-399-other.so"
        for path in (stale, in_progress, other_abi):
            path.write_bytes(b"")
        assert _kernel._load_kernel(tmp_path) is not _kernel.PYTHON, _kernel._kernel_error
        (built,) = set(tmp_path.iterdir()) - {in_progress, other_abi}
        assert built.name.endswith(suffix) and built != stale
        assert in_progress.exists() and other_abi.exists()
        # A load that compiles nothing removes nothing.
        stale.write_bytes(b"")
        assert _kernel._load_kernel(tmp_path) is not _kernel.PYTHON, _kernel._kernel_error
        assert set(tmp_path.iterdir()) == {built, stale, in_progress, other_abi}

    def test_builds_by_two_compilers_do_not_share_a_name(self, kernel, tmp_path, monkeypatch):
        # A wrapper that adds flags (a sanitizer's, say) builds a kernel that
        # a plain process must not load: the name sees the compiler.
        monkeypatch.setattr(_kernel, "_kernel_error", None)
        wrapper = tmp_path / "wrapped-cc"
        wrapper.write_text('#!/bin/sh\nexec cc "$@"\n')
        wrapper.chmod(0o755)
        cache = tmp_path / "cache"
        wrapped = _kernel._load_kernel(cache, str(wrapper))
        assert wrapped is not _kernel.PYTHON, _kernel._kernel_error
        plain = _kernel._load_kernel(cache, "cc")
        assert plain is not _kernel.PYTHON, _kernel._kernel_error
        assert Path(wrapped.__file__).name != Path(plain.__file__).name
        # The plain build evicts the wrapper's, as a build of a newer source would.
        assert [p.name for p in cache.iterdir()] == [Path(plain.__file__).name]


@st.composite
def chunked_recording(draw):
    """A random_recording, a start state and sorted cuts into possibly empty chunks.

    The cuts always hold the recording's zero-accel row as a one-row chunk.
    """
    n = draw(st.integers(6, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    accel, gyro = random_recording(rng, n)
    state = random_state(rng, draw(st.booleans()))
    (zero,) = np.flatnonzero((accel == 0.0).all(axis=1))
    cuts = draw(st.lists(st.integers(0, n), max_size=12))
    return accel, gyro, state, sorted([0, zero, zero + 1, n, *cuts]), zero


# Derandomized and without an example database, so tier-1 runs the same
# examples on every run and machine.
PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)


class TestFilterStateProperties:
    @PROPERTY
    @given(chunked_recording())
    def test_any_chunking_gives_one_call_bits_and_unit_norm_states(self, case):
        accel, gyro, state, bounds, zero = case
        want_angles, want_state = madgwick_batch(accel, gyro, DT, state)
        parts = []
        for start, stop in zip(bounds, bounds[1:]):
            part, state = madgwick_batch(accel[start:stop], gyro[start:stop], DT, state)
            parts.append(part)
            assert abs(math.hypot(*state[:4]) - 1.0) <= 1e-12
            if (start, stop) == (zero, zero + 1):
                assert state.accel_rejected
        assert np.concatenate(parts).tobytes() == want_angles.tobytes()
        assert np.array(state[:4]).tobytes() == np.array(want_state[:4]).tobytes()
        assert state.accel_rejected == want_state.accel_rejected


MIRRORED = (
    "the x/-x matrices map the named axis to canonical -y (ROADMAP Known faults); "
    "gaitbench/synth.py builds its legs from them, so the fix waits for a benchmark change"
)


class TestMounting:
    @pytest.mark.parametrize(
        "axis",
        [
            pytest.param(axis, marks=pytest.mark.xfail(strict=True, reason=MIRRORED))
            if axis in ("x", "-x")
            else axis
            for axis in MOUNTING_AXES
        ],
    )
    def test_named_axis_reads_canonical_left(self, axis):
        # mounting_axis names the raw sensor axis that points to the wearer's left.
        raw = np.eye(3)["xyz".index(axis[-1])] * (-1.0 if axis.startswith("-") else 1.0)
        assert np.array_equal(remap_mounting(raw[np.newaxis], axis), [[0.0, 1.0, 0.0]])

    def test_default_identity(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(remap_mounting(v, "y"), v)

    def test_flipped_lateral_axis(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(remap_mounting(v, "-y"), [[-1.0, -2.0, 3.0]])

    def test_rotations_are_proper(self):
        from gaitlab.orientation import _MOUNT_MATRICES

        for name, m in _MOUNT_MATRICES.items():
            assert np.linalg.det(m) == pytest.approx(1.0), name
            assert np.allclose(m @ m.T, np.eye(3)), name

    def test_unknown_mounting_rejected(self):
        with pytest.raises(GaitInputError):
            remap_mounting(np.zeros((1, 3)), "z")

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (2, 3, 3), (0,), (4, 4)])
    def test_non_n_by_3_input_rejected(self, shape):
        with pytest.raises(GaitInputError, match="must be"):
            remap_mounting(np.zeros(shape), "y")

    @pytest.mark.parametrize("axis", MOUNTING_AXES)
    def test_remap_gives_the_matmul_oracle_bits(self, axis):
        from gaitlab.orientation import _MOUNT_MATRICES

        rng = np.random.default_rng(MOUNTING_AXES.index(axis))
        accel, gyro = random_recording(rng, 300)
        accel[:40] = rng.choice([0.0, -0.0, 1.5, -2.0], size=(40, 3))
        gyro[:40] = rng.choice([0.0, -0.0, 3.0], size=(40, 3))
        state = random_state(rng)
        outputs = []
        for remap in (
            lambda v: v @ _MOUNT_MATRICES[axis].T,
            lambda v: remap_mounting(v, axis),
        ):
            with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite row
                a, g = remap(accel), remap(gyro)
            for raw, out in ((accel, a), (gyro, g)):
                finite = np.isfinite(raw).all(axis=1)
                assert not np.isfinite(out[~finite]).all(axis=1).any()
                outputs.append(out[finite].tobytes())
            angles, end = madgwick_batch(a, g, DT, state)
            outputs.append((angles.tobytes(), end))
        assert outputs[:3] == outputs[3:]


def nan_blind_bits(a):
    """a's bytes with every NaN made the one NaN: which NaN a row holding
    two (inf x 0 is -NaN on x86) ends in follows the order of the sum."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestRotateLoop:
    """The kernel's `rotate` writes `_rotate_loop`'s (numpy's `@`) bits for every mount."""

    @pytest.mark.parametrize("n", [0, 1, 10, 15000])
    @pytest.mark.parametrize("axis", MOUNTING_AXES)
    def test_kernel_equals_numpy(self, compiled_kernel, n, axis):
        rng = np.random.default_rng(n)
        v = rng.normal(0.0, 2.0, (n, 3))
        # Whole rows of +-0.0, and one NaN or +-inf in some other rows: the
        # bits are numpy's.
        v[: n // 4] = rng.choice([0.0, -0.0], (n // 4, 3))
        rows = rng.choice(np.arange(n // 4, n), size=min(n - n // 4, 60), replace=False)
        v[rows, rng.integers(0, 3, len(rows))] = rng.choice([np.nan, np.inf, -np.inf], len(rows))
        m = orientation._MOUNT_MATRICES_T[axis]
        got, want = np.full((n, 3), 7.0), np.full((n, 3), 7.0)
        compiled_kernel.rotate(v, m, got)
        _rotate_loop(v, m, want)
        assert got.tobytes() == want.tobytes()
        # Several NaN or inf in a row: NaN at the same places.
        v.flat[rng.choice(v.size, size=min(v.size, 3 * len(rows)), replace=False)] = np.nan
        v[rows, rng.integers(0, 3, len(rows))] = -np.inf
        compiled_kernel.rotate(v, m, got)
        _rotate_loop(v, m, want)
        assert nan_blind_bits(got) == nan_blind_bits(want)

    @pytest.mark.parametrize("values, matrix, out", [(24, 72, 48), (24, 64, 24), (16, 72, 16)])
    def test_lengths_checked(self, compiled_kernel, values, matrix, out):
        with pytest.raises(ValueError, match="rotate needs"):
            compiled_kernel.rotate(bytes(values), bytes(matrix), bytearray(out))

    def test_an_inf_row_does_not_warn(self, loops):
        # inf x 0 is NaN in the product, which numpy's `@` warns of.
        v = np.array([[np.inf, 0.0, 1.0], [0.0, -np.inf, np.nan], [1.0, 2.0, 3.0]])
        for axis in MOUNTING_AXES:
            out = remap_mounting(v, axis)
            assert np.isnan(out[:2]).any(axis=1).all() and np.isfinite(out[2]).all()
