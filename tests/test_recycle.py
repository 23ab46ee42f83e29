"""Whole-recording stage outputs in recycled memory give the bits of new arrays.

`_kernel.empty` hands an output of `BLOCK_MIN_BYTES` or more the memory of
a `block`, which the C kernel takes from the free list of released blocks
(`bytearray` on the Python loops). `apply_offsets`, `remap_mounting` and
`madgwick_batch` are run at lengths just below, at and just above that
threshold, into a free list filled with blocks holding garbage, and compared
bit for bit with the same calls on `np.empty`. A block goes back to the
list only once no array, view or memoryview of it is left, so a live array
never shares memory with a new one; the list stays under its two caps; and
a recording analysed after another reads nothing the other left behind.
"""

import math
import pickle

import numpy as np
import pytest

from gaitbench import synth
from gaitlab import _kernel
from gaitlab.orientation import (
    _MOUNT_MATRICES_T,
    MOUNTING_AXES,
    filter_init,
    madgwick_batch,
    remap_mounting,
)
from gaitlab.pipeline import analyze
from gaitlab.signal import BendStream, ImuStream, OffsetSet, apply_offsets

DT = 0.004
# The 1-D lengths and the (N, 3) row counts just below, at and above the threshold.
LENGTHS = [_kernel.BLOCK_MIN_BYTES // 8 + d for d in (-1, 0, 1)]
ROWS = [math.ceil(_kernel.BLOCK_MIN_BYTES / 24) + d for d in (-1, 0, 1)]


def fill_free_list(*shapes):
    """Release one block per float64 shape, each full of NaN garbage, so the
    next outputs of those shapes take memory that held something else."""
    for shape in shapes:
        _kernel.empty(shape).fill(np.nan)


def on_new_arrays(monkeypatch, fn, *args):
    """fn(*args) with every `_kernel.empty` a plain `np.empty`."""
    with monkeypatch.context() as m:
        m.setattr(_kernel, "BLOCK_MIN_BYTES", math.inf)
        return fn(*args)


def drain(kernel):
    """Take every block off the kernel's free list; returns them, to hold.

    A request of 2**k bytes takes any listed block of 2**k to 2**(k+1) bytes,
    so a round of requests takes one block of each such range that holds
    any, and a list still not empty after BLOCK_POOL_COUNT rounds holds a
    block that no request can take.
    """
    held = []
    for _ in range(kernel.BLOCK_POOL_COUNT):
        if not kernel.pooled()[0]:
            break
        held += [kernel.block(1 << k) for k in range(28)]
    assert kernel.pooled() == (0, 0)
    return held


def special_rows(rng, n):
    """(n, 3) normal rows with NaN, +inf, -inf and -0.0 spread through them."""
    v = rng.normal(0.0, 2.0, (n, 3))
    idx = rng.choice(n, size=min(n, 40), replace=False)
    v.flat[idx * 3 + rng.integers(0, 3, len(idx))] = rng.choice(
        [np.nan, np.inf, -np.inf, -0.0], len(idx)
    )
    return v


class TestSameBits:
    @pytest.mark.parametrize("rows, n_bend", zip(ROWS, LENGTHS))
    def test_apply_offsets(self, loops, rows, n_bend, monkeypatch):
        rng = np.random.default_rng(rows)
        imu = ImuStream(np.arange(rows) * DT, rng.normal(0, 1, (rows, 3)), rng.normal(0, 90, (rows, 3)))
        bend = BendStream(np.arange(n_bend) * 0.01, rng.normal(20, 15, n_bend))
        offsets = OffsetSet(rng.normal(0, 0.02, 3), rng.normal(0, 1, 3), 1.25)
        want_imu, want_bend = on_new_arrays(monkeypatch, apply_offsets, imu, bend, offsets)
        fill_free_list((rows, 3), (rows, 3), (n_bend,))
        got_imu, got_bend = apply_offsets(imu, bend, offsets)
        for got, want in ((got_imu.accel, want_imu.accel), (got_imu.gyro, want_imu.gyro),
                          (got_bend.angle_deg, want_bend.angle_deg)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable
            assert (not got.flags.owndata) == (got.nbytes >= _kernel.BLOCK_MIN_BYTES)

    @pytest.mark.parametrize("rows", [1, 10, 64, *ROWS, 15000])
    @pytest.mark.parametrize("axis", MOUNTING_AXES)
    def test_remap_mounting(self, loops, rows, axis):
        v = special_rows(np.random.default_rng(rows), rows)
        fill_free_list((rows, 3))
        # inf x 0 in the rotation warns, with `@` as with `out=`.
        with np.errstate(invalid="ignore"):
            got = remap_mounting(v, axis)
            want = v @ _MOUNT_MATRICES_T[axis]
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert (not got.flags.owndata) == (got.nbytes >= _kernel.BLOCK_MIN_BYTES)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_madgwick_batch(self, loops, n, monkeypatch):
        rng = np.random.default_rng(n)
        accel, gyro = rng.normal([0, 0, 1], 0.3, (n, 3)), rng.normal(0, 150, (n, 3))
        want, want_state = on_new_arrays(monkeypatch, madgwick_batch, accel, gyro, DT, filter_init())
        fill_free_list((n,))
        got, state = madgwick_batch(accel, gyro, DT, filter_init())
        assert got.tobytes() == want.tobytes() and state == want_state
        assert (not got.flags.owndata) == (n >= _kernel.BLOCK_MIN_BYTES // 8)

    def test_output_pickles_as_a_new_array(self, loops):
        out = _kernel.empty((ROWS[-1], 3))
        out[:] = np.arange(out.size).reshape(out.shape)
        assert pickle.dumps(out) == pickle.dumps(out.copy())


class TestLifetime:
    def test_a_kept_view_is_never_handed_out_again(self, loops):
        rng = np.random.default_rng(5)
        v = rng.normal(0, 1, (ROWS[-1], 3))
        out = remap_mounting(v, "x")
        view, mem = out[::7, 1], memoryview(out)
        kept = view.copy()
        del out
        for k in range(6):
            new = remap_mounting(rng.normal(0, 1, v.shape), MOUNTING_AXES[k % 4])
            assert not np.shares_memory(new, view)
            del new
        assert view.tobytes() == kept.tobytes()
        assert np.frombuffer(mem, np.float64)[1::21].tobytes() == kept.tobytes()

    def test_the_same_size_takes_the_released_memory(self, compiled_kernel):
        held = drain(compiled_kernel)  # noqa: F841 (kept off the list until the test ends)
        size = 3 * _kernel.BLOCK_MIN_BYTES + 8
        first = np.frombuffer(compiled_kernel.block(size), np.uint8)
        address = first.ctypes.data
        del first
        again = np.frombuffer(compiled_kernel.block(size), np.uint8)
        assert again.ctypes.data == address and again.nbytes == size
        # A block at least twice the size asked for stays on the list.
        del again
        small = np.frombuffer(compiled_kernel.block(size // 2), np.uint8)
        assert small.ctypes.data != address and small.nbytes == size // 2

    def test_block_takes_a_non_negative_int(self, loops):
        make = _kernel.loops().block
        assert memoryview(make(0)).nbytes == 0 and memoryview(make(24)).nbytes == 24
        with pytest.raises(ValueError):
            make(-1)
        with pytest.raises(TypeError):
            make(2.5)

    def test_an_empty_block_is_not_listed(self, compiled_kernel):
        # No request could take it back, so it would hold a slot for good.
        held = drain(compiled_kernel)  # noqa: F841 (kept off the list until the test ends)
        compiled_kernel.block(0)
        assert compiled_kernel.pooled() == (0, 0)

    def test_free_list_stays_under_its_caps(self, compiled_kernel):
        count_cap, bytes_cap = compiled_kernel.BLOCK_POOL_COUNT, compiled_kernel.BLOCK_POOL_BYTES
        rng = np.random.default_rng(9)
        held = []
        # Many small blocks reach the count cap, then a few large ones the
        # byte cap. malloc leaves untouched pages unmapped, so this maps
        # little memory.
        for sizes, reached in (
            (rng.integers(64 << 10, 1 << 20, 3 * count_cap), lambda count, _: count == count_cap),
            (rng.integers(bytes_cap // 6, bytes_cap // 3, 8), lambda _, n: n > bytes_cap * 2 // 3),
        ):
            held += drain(compiled_kernel)
            seen = []
            for lo in range(0, len(sizes), 8):
                batch = [compiled_kernel.block(int(s)) for s in sizes[lo : lo + 8]]
                while batch:
                    batch.pop(int(rng.integers(len(batch))))
                    count, nbytes = compiled_kernel.pooled()
                    assert count <= count_cap and nbytes <= bytes_cap
                    seen.append(reached(count, nbytes))
            assert any(seen)


def test_analysis_reads_nothing_an_earlier_recording_left(compiled_kernel):
    walk_a = synth.make_walks(3131, 1, 20.0)[0]
    walk_b = synth.make_walks(4747, 1, 26.0)[0]
    first = analyze(walk_a.legs, walk_a.params)
    first_bytes = pickle.dumps(first)
    del first
    analyze(walk_b.legs, walk_b.params)
    again = analyze(walk_a.legs, walk_a.params)
    assert pickle.dumps(again) == first_bytes
    assert pickle.loads(first_bytes) == again
