"""Whole-recording stage outputs in recycled memory give the bits of new arrays.

`_kernel.empty` hands an output of `BLOCK_MIN_BYTES` or more a block of its
free list of released memory, the same list on the C kernel and on the
Python loops. `apply_offsets`, `remap_mounting` and `madgwick_batch` are run
at lengths just below, at and just above that threshold, into a free list
filled with blocks holding garbage, and compared bit for bit with the same
calls on `np.empty`. A block goes back to the list only once no array, view
or memoryview of it is left, and a take is atomic, so a live array never
shares memory with a new one, from one thread or two; the list keeps its
fit rule and stays under its two caps; and a recording analysed after
another reads nothing the other left behind. The free list's own tests
take no `loops` fixture: `empty` never loads the kernel, so they run the
same, and without a compiler, whichever loops are loaded.
"""

import math
import pickle
import sys
import threading
import time

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


def pooled():
    """The free list's block count and total capacity in bytes."""
    return len(_kernel._pool), sum(block[0] for block in _kernel._pool)


def drain():
    """Take every block off the free list; returns them, to hold.

    A request of 2**k bytes takes any listed block of 2**k to 2**(k+1) bytes,
    so a round of requests takes one block of each such range that holds
    any (no block is under BLOCK_MIN_BYTES), and a list still not empty
    after BLOCK_POOL_COUNT rounds holds a block that no request can take.
    """
    held = []
    for _ in range(_kernel.BLOCK_POOL_COUNT):
        if not pooled()[0]:
            break
        held += [_kernel.empty((1 << k) // 8) for k in range(16, 28)]
    assert pooled() == (0, 0)
    return held


def address(a):
    return a.__array_interface__["data"][0]


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

    def test_the_same_size_takes_the_released_memory(self):
        held = drain()  # noqa: F841 (kept off the list until the test ends)
        n = 3 * _kernel.BLOCK_MIN_BYTES // 8 + 1
        first = _kernel.empty(n)
        where = address(first)
        del first
        again = _kernel.empty(n)
        assert address(again) == where and again.shape == (n,)
        del again
        # A block at least twice the request stays on the list; one under
        # twice it is taken.
        small = _kernel.empty(n // 2)
        assert address(small) != where and small.shape == (n // 2,)
        larger = _kernel.empty(n // 2 + 1)
        assert address(larger) == where and larger.shape == (n // 2 + 1,)

    def test_the_last_released_block_that_fits_is_taken(self):
        held = drain()  # noqa: F841 (kept off the list until the test ends)
        n = _kernel.BLOCK_MIN_BYTES // 8
        a, b, c = _kernel.empty(n + 10), _kernel.empty(n + 20), _kernel.empty(3 * n)
        where = [address(x) for x in (a, b, c)]
        del b, a, c
        assert pooled() == (3, 8 * (5 * n + 30))
        taken = _kernel.empty(n), _kernel.empty(n), _kernel.empty(2 * n)
        assert [address(x) for x in taken] == where
        assert pooled() == (0, 0)

    def test_empty_takes_what_np_empty_takes(self):
        for shape in (0, (0,), (0, 3), 24, (8, 3), _kernel.BLOCK_MIN_BYTES // 8, (70000, 3, 2)):
            got = _kernel.empty(shape)
            assert got.shape == np.empty(shape).shape and got.dtype == np.float64
        for shape, error in ((-1, ValueError), ((-1, -70000), ValueError), (2.5, TypeError)):
            with pytest.raises(error):
                _kernel.empty(shape)

    def test_a_release_never_waits_for_the_lock(self):
        held = drain()  # noqa: F841 (kept off the list until the test ends)
        out = _kernel.empty(LENGTHS[-1])
        locked, done = threading.Event(), threading.Event()

        def hold():
            with _kernel._pool_lock:
                locked.set()
                done.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        assert locked.wait(10)
        start = time.perf_counter()
        del out  # a release waiting for the lock would wait the 10 s out
        waited = time.perf_counter() - start
        done.set()
        holder.join(10)
        assert not holder.is_alive() and waited < 5
        assert pooled() == (1, 8 * LENGTHS[-1])

    def test_a_take_waits_for_the_lock(self):
        taken = []
        take = threading.Thread(target=lambda: taken.append(_kernel.empty(LENGTHS[-1])))
        with _kernel._pool_lock:
            take.start()
            take.join(0.05)
            assert take.is_alive() and not taken
        take.join(60)
        assert not take.is_alive() and taken[0].shape == (LENGTHS[-1],)

    def test_free_list_stays_under_its_caps(self):
        count_cap, bytes_cap = _kernel.BLOCK_POOL_COUNT, _kernel.BLOCK_POOL_BYTES
        rng = np.random.default_rng(9)
        held = []
        # Many small blocks reach the count cap, then a few large ones the
        # byte cap. Untouched pages stay unmapped, so this maps little memory.
        for sizes, reached in (
            (rng.integers(64 << 10, 1 << 20, 3 * count_cap), lambda count, _: count == count_cap),
            (rng.integers(bytes_cap // 6, bytes_cap // 3, 8), lambda _, n: n > bytes_cap * 2 // 3),
        ):
            held += drain()
            seen = []
            for lo in range(0, len(sizes), 8):
                batch = [_kernel.empty(int(s) // 8) for s in sizes[lo : lo + 8]]
                while batch:
                    batch.pop(int(rng.integers(len(batch))))
                    count, nbytes = pooled()
                    assert count <= count_cap and nbytes <= bytes_cap
                    seen.append(reached(count, nbytes))
            assert any(seen)


def test_threads_never_share_a_block():
    # Mixed sizes, at, above and at twice the threshold, so a take can find
    # a block of another size that fits.
    sizes = [_kernel.BLOCK_MIN_BYTES // 8 * m + d for m in (1, 2, 3) for d in (0, 7)]
    kept, errors = [], []

    def hand_out(seed):
        rng = np.random.default_rng(seed)
        live = []
        try:
            for i in range(1500):
                n = int(rng.choice(sizes))
                out = _kernel.empty(n)
                assert out.shape == (n,) and out.base._block[0] >= out.nbytes
                out.fill(seed * 10_000 + i)
                live.append((out, seed * 10_000 + i))
                if len(live) > 4:
                    out, value = live.pop(int(rng.integers(len(live))))
                    # Another thread's output on the same memory would have
                    # overwritten it.
                    assert np.all(out == value)
        except AssertionError as exc:
            errors.append(exc)
        kept.extend(out for out, _ in live)

    # More threads than the 2 CPUs of the machine it was written on, switching
    # every microsecond.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hand_out, args=(seed,)) for seed in (1, 2, 3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(kept) == 16
    for i, a in enumerate(kept):
        assert not any(np.shares_memory(a, b) for b in kept[i + 1 :])
    assert len({block[1] for block in _kernel._pool}) == len(_kernel._pool)


def test_analysis_reads_nothing_an_earlier_recording_left(loops):
    walk_a = synth.make_walks(3131, 1, 20.0)[0]
    walk_b = synth.make_walks(4747, 1, 26.0)[0]
    first = analyze(walk_a.legs, walk_a.params)
    first_bytes = pickle.dumps(first)
    del first
    analyze(walk_b.legs, walk_b.params)
    again = analyze(walk_a.legs, walk_a.params)
    assert pickle.dumps(again) == first_bytes
    assert pickle.loads(first_bytes) == again
