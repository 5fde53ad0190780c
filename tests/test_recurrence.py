import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import slab_sn.sweep
from _helpers import UnsegmentedScan, recurrence_loop, scan
from slab_sn import ValidationError, power_iteration
from slab_sn.recurrence import FirstOrderScan


def coefficients(rng, kind, shape):
    if kind == "zero":
        return np.zeros(shape)
    if kind == "one":
        return np.ones(shape)
    if kind == "tiny":
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, -299.0, shape)
    if kind == "complex":
        return rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    return rng.uniform(-1.0, 1.0, shape)


class TestFirstOrderScan:
    # per-row block counts 1, 1, 2, 3, 8, 6, 16, 17 and 78: the doubling
    # chain at one block, two, a power of two and one more than that
    @pytest.mark.parametrize("kind", ["zero", "one", "tiny", "complex", "random"])
    @pytest.mark.parametrize("m", [1, 2, 4, 5, 16, 17, 64, 65, 700])
    def test_matches_loop(self, kind, m):
        rng = np.random.default_rng(7)
        a = coefficients(rng, kind, (m, 3, 2))
        b = rng.standard_normal((m, 3, 2))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((m, 3, 2))
        ref = recurrence_loop(a, b)
        got = scan(FirstOrderScan(a), b)
        assert got.shape == b.shape and got.dtype == ref.dtype
        # a = 1 is a running sum, whose rounding grows with the row count
        scale = np.max(np.abs(np.cumsum(np.abs(b), axis=0)))
        assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * scale

    def test_complex_source_with_real_coefficients(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.0, 1.0, (40, 4))
        b = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        march = FirstOrderScan(a)
        assert np.allclose(scan(march, b), recurrence_loop(a, b), rtol=0, atol=1e-14)
        # the coefficients are reused unchanged by a second call
        assert np.allclose(scan(march, b.real), recurrence_loop(a, b.real), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["random", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 7, 49, 50, 1429])
    def test_shared_row_matches_repeated_rows(self, kind, m):
        rng = np.random.default_rng(9)
        a = coefficients(rng, kind, (1, 3, 2))
        b = rng.standard_normal((m, 3, 2))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((m, 3, 2))
        got = scan(FirstOrderScan(a, m), b)
        ref = scan(FirstOrderScan(np.repeat(a, m, axis=0)), b)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_shared_row_keeps_no_per_row_product(self):
        rng = np.random.default_rng(10)
        a = coefficients(rng, "complex", (1, 64))
        m = 1429

        march, peak = construction_peak(a, m)
        running_product = march.size * march.count * a.nbytes
        assert peak < running_product / 10
        # per-row coefficients do need the (size, count, columns) product
        _, peak = construction_peak(np.repeat(a, m, axis=0), m)
        assert peak >= running_product

    # rows of 32 and of 64 complex columns ("wide"): the tables' share of a
    # running product peaks near a hundred rows
    @pytest.mark.parametrize("rows, share, columns", [
        pytest.param(rows, share, columns, id=f"{rows}-{share}" + ("-wide" if columns > 32 else ""))
        for columns in (32, 64) for rows, share in [(64, 0.8), (100, 0.95), (1429, 0.5)]])
    def test_per_row_doubling_tables_stay_small(self, rows, share, columns):
        rng = np.random.default_rng(10)
        a = coefficients(rng, "complex", (rows, columns))
        march, peak = construction_peak(a, rows)
        running_product = march.size * march.count * a[0].nbytes
        # ceil(log2(count)) tables of at most count rows: about
        # (log2(count) - 1) / size running products, where one table per
        # row would take log2(rows) whole ones
        tables = sum(t.nbytes for t in march.tables)
        assert not march.shared and len(march.tables) == np.ceil(np.log2(march.count))
        assert tables < share * running_product
        # the blocked coefficients and their running product, the tables,
        # and four (rows,) index maps and a few small arrays
        assert peak < 2 * running_product + tables + 4 * march.index.nbytes + 8192

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            FirstOrderScan(np.ones((3, 2)), 4)

    @pytest.mark.parametrize("start", [-1, 4])
    def test_rejects_segment_start_outside_rows(self, start):
        with pytest.raises(ValidationError, match="segment starts"):
            FirstOrderScan(np.ones((1, 2)), 4, [0, start])


class TestBlockedLayout:
    """The layout contract that callers read instead of rebuilding it:
    index, last, blocks and unblocks."""

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, 16, 17, 700, 1429])
    def test_layout_contract(self, rows, shared):
        rng = np.random.default_rng(rows)
        starts = np.unique(rng.integers(0, rows, rng.integers(0, 8)))
        a = coefficients(rng, "complex", (1 if shared else rows, 3))
        march = FirstOrderScan(a, rows, starts)
        flat = march.size * march.count
        # index: each scan row's row in the flattened workspace, a
        # permutation of rows into size * count rows
        m = np.arange(rows)
        assert np.array_equal(march.index, m % march.size * march.count + m // march.size)
        assert np.unique(march.index).size == rows
        assert march.index.min() >= 0 and march.index.max() < flat
        x = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        y = march.blocks(x)
        assert y.shape == (march.size, march.count, 3) and y.dtype == x.dtype
        assert march.unblocks(y).tobytes() == x.tobytes()
        # the padding rows of a last, partial block are zero
        padding = np.setdiff1d(np.arange(flat), march.index)
        assert padding.size == flat - rows
        assert np.all(y.reshape(flat, 3)[padding] == 0)
        # last: the flattened row of each segment's last row, the one
        # before the next start
        first = np.union1d(starts, [0])
        assert np.array_equal(march.last, march.index[np.append(first[1:], rows) - 1])
        assert not (march.index.flags.writeable or march.last.flags.writeable)

    @pytest.mark.parametrize("shape", [(4, 17, 3), (4, 18, 2), (72, 3), (4, 18, 3, 1)])
    def test_unblocks_rejects_another_blocked_shape(self, shape):
        march = FirstOrderScan(np.ones((70, 3)))
        assert march.blocks(np.ones((70, 3))).shape == (4, 18, 3)
        with pytest.raises(ValidationError, match=r"expected \(4, 18, 3\)"):
            march.unblocks(np.zeros(shape))

    # (rows, shared): a last, partial block in every layout
    @pytest.mark.parametrize("rows, shared", [(70, False), (49, False), (1429, False),
                                              (70, True), (50, True), (1429, True)])
    @pytest.mark.parametrize("segments", [False, True])
    @pytest.mark.parametrize("kind", ["random", "complex"])
    def test_padding_sources_reach_no_real_row(self, rows, shared, segments, kind):
        # the padding rows sit at the end of the last block, whose end no
        # carry reads: whatever finite sources they hold, every real row
        # scans bit for bit as with zeros there.  Both operators gather a
        # real cell's source onto them instead of keeping a zero
        rng = np.random.default_rng(rows)
        starts = np.unique(rng.integers(1, rows, 6)) if segments else ()
        a = coefficients(rng, kind, (1 if shared else rows, 3))
        march = FirstOrderScan(a, rows, starts)
        flat = march.size * march.count
        padding = np.setdiff1d(np.arange(flat), march.index)
        # all in the last block, past its real rows
        last = (march.count - 1) * march.size
        assert padding.size > 0 and np.array_equal(
            padding, np.arange(rows - last, march.size) * march.count + march.count - 1)
        b = rng.standard_normal((rows, 3))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((rows, 3))
        work = march.workspace(b.dtype)
        y = work[0].reshape(flat, 3)
        results = []
        for fill in range(4):
            pad = rng.uniform(-1.0, 1.0, (padding.size, 3)) * 10.0 ** rng.uniform(
                -300.0, 300.0, (padding.size, 3))
            pad[0, :2] = 1e300, -1e300
            if kind == "complex":
                pad = pad + 1j * pad[::-1]
            y[march.index] = b
            y[padding] = 0.0 if fill == 0 else pad
            march.in_place(work)
            results.append(y[march.index].tobytes())
        assert results[1:] == results[:1] * 3


def construction_peak(coef, rows, starts=()):
    """The scan and the peak memory traced while building it."""
    tracemalloc.start()
    try:
        march = FirstOrderScan(coef, rows, starts)
        return march, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def call_with_out_peak(shared, columns, segments):
    """The peak memory traced while a kept workspace scans complex
    coefficients over LAYOUTS["mixed"] into a caller's array, under 40 KB
    only if no trip allocates a row of products: every scan here has a
    block row of at least 40 KB."""
    rng = np.random.default_rng(16)
    lengths = LAYOUTS["mixed"]
    rows = sum(lengths)
    starts = segment_starts(lengths) if segments == "several" else ()
    a = coefficients(rng, "complex", (1 if shared else rows, columns))
    march = FirstOrderScan(a, rows, starts)
    assert march.shared == shared
    assert march.count * a[0].nbytes >= 40 * 64 * 16
    b = rng.standard_normal((rows, columns)) + 1j * rng.standard_normal((rows, columns))
    ref = scan(march, b)
    out = np.empty_like(ref)
    work = march.workspace(complex)
    tracemalloc.start()
    try:
        scan(march, b, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, ref)
    return peak


# segment lengths; "mixed" adds fillers (263, 272) that start the 49- and
# the 1429-row segments at rows 322 and 644, on block boundaries of both
# block-size rules: 46-row blocks for the serial chain, 14-row ones for
# the doubling chain
LAYOUTS = {"off": [1, 2, 7, 49, 50, 1429],
           "reversed": [1429, 50, 49, 7, 2, 1],
           "mixed": [1, 2, 7, 263, 49, 50, 272, 1429]}


def segment_starts(lengths):
    return np.cumsum([0] + lengths[:-1])


class TestSegmentedScan:
    """One call over many segments against one scan per segment."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("kind", ["random", "complex"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_separate_scans(self, layout, kind, shared):
        rng = np.random.default_rng(11)
        lengths = LAYOUTS[layout]
        starts, rows = segment_starts(lengths), sum(lengths)
        a = coefficients(rng, kind, (1 if shared else rows, 3, 2))
        b = rng.standard_normal((rows, 3, 2))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((rows, 3, 2))
        march = FirstOrderScan(a, rows, starts)
        on_block = np.count_nonzero(starts[1:] % march.size == 0)
        assert on_block == (2 if layout == "mixed" else 0)
        got = scan(march, b)
        ref = np.concatenate([scan(FirstOrderScan(a if shared else a[s:s + n], n), b[s:s + n])
                              for s, n in zip(starts, lengths)])
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_matches_loop_that_restarts(self):
        rng = np.random.default_rng(12)
        lengths = LAYOUTS["mixed"]
        starts, rows = segment_starts(lengths), sum(lengths)
        a = coefficients(rng, "complex", (rows, 4))
        b = rng.standard_normal((rows, 4))
        cut = a.copy()
        cut[starts] = 0.0
        got = scan(FirstOrderScan(a, rows, starts), b)
        ref = recurrence_loop(cut, b)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    # (rows, block count, starts) for per-row coefficients: every case with
    # more than one block has starts on block boundaries and off them
    @pytest.mark.parametrize("rows, count, starts", [
        (2, 1, [1]), (4, 2, [2, 3]), (64, 16, [4, 13, 32, 33, 60]), (65, 17, [8, 17, 30, 64])])
    @pytest.mark.parametrize("kind", ["zero", "tiny", "complex", "holes"])
    def test_doubling_chain_matches_loop_that_restarts(self, rows, count, starts, kind):
        # zero and tiny coefficients make zero or underflowing block
        # totals; "holes" zeroes one row in five, so that totals vanish
        # inside segments too
        rng = np.random.default_rng(rows)
        a = coefficients(rng, "random" if kind == "holes" else kind, (rows, 4))
        if kind == "holes":
            a[::5] = 0.0
        b = rng.standard_normal((rows, 4))
        march = FirstOrderScan(a, rows, starts)
        assert not march.shared and march.count == count
        on_block = np.asarray(starts) % march.size == 0
        assert on_block.any() == (count > 1) and not on_block.all()
        cut = a.copy()
        cut[starts] = 0.0
        ref = recurrence_loop(cut, b)
        assert np.max(np.abs(scan(march, b) - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_shared_row_keeps_no_per_row_coefficients(self):
        rng = np.random.default_rng(13)
        a = coefficients(rng, "complex", (1, 64))
        lengths = LAYOUTS["mixed"]
        rows = sum(lengths)
        march, peak = construction_peak(a, rows, segment_starts(lengths))
        # no (rows, columns) array of a, of its running product or of a
        # per-segment copy: the starts cost a (rows,) mask
        assert peak < rows * a.nbytes / 10

    def test_out_and_workspace_leave_results_unchanged(self):
        rng = np.random.default_rng(14)
        lengths = LAYOUTS["mixed"]
        starts, rows = segment_starts(lengths), sum(lengths)
        a = coefficients(rng, "complex", (1, 8))
        b = rng.standard_normal((rows, 8)) + 1j * rng.standard_normal((rows, 8))
        march = FirstOrderScan(a, rows, starts)
        ref = scan(march, b)
        # b may sit in the second workspace buffer, y in a caller's array
        work = march.workspace(complex)
        spare = march.rows(work[1])
        spare[...] = b
        out = np.empty_like(ref)
        assert scan(march, spare, out=out, work=work) is out
        assert np.array_equal(out, ref)
        # a later call in the same workspace leaves earlier results alone
        scan(march, 2.0 * b, work=work)
        assert np.array_equal(out, ref) and np.array_equal(scan(march, b, work=work), ref)

    def test_call_in_a_workspace_allocates_only_its_result(self):
        rng = np.random.default_rng(15)
        lengths = LAYOUTS["mixed"]
        rows = sum(lengths)
        march = FirstOrderScan(coefficients(rng, "complex", (1, 64)), rows,
                               segment_starts(lengths))
        b = rng.standard_normal((rows, 64)) + 1j * rng.standard_normal((rows, 64))
        work = march.workspace(complex)
        tracemalloc.start()
        try:
            result = scan(march, b, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the blocked iterate and the carry update stay in the workspace
        assert peak < 1.2 * result.nbytes

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("segments", ["one", "several"])
    def test_call_with_out_allocates_less_than_a_block_row(self, shared, segments):
        # the workspace holds the views both loops step through: no trip
        # of either allocates a row of products
        assert call_with_out_peak(shared, 64, segments) < 40 * 64 * 16

    @pytest.mark.parametrize("segments", ["one", "several"])
    def test_doubling_call_with_out_allocates_less_than_a_block_row(self, segments):
        # nor over narrower per-row rows, of 32 complex columns
        assert call_with_out_peak(False, 32, segments) < 40 * 64 * 16

    def test_one_segment_sweep_is_bit_identical(self, pincell, monkeypatch):
        # the sweep runs the whole slab as one segment: k, outer counts and
        # sweep counts equal those of the scan without segment starts, at
        # S4 (rows of 64 bytes) and S64 (1024 bytes)
        for order in (4, 64):
            config = replace(pincell.config, solver_kind="sweep", sn_order=order,
                             fine_mesh_size=140)
            segmented = power_iteration(pincell.geometry, pincell.materials, config)
            with monkeypatch.context() as patch:
                patch.setattr(slab_sn.sweep, "FirstOrderScan", UnsegmentedScan)
                plain = power_iteration(pincell.geometry, pincell.materials, config)
            assert segmented.k_eff == plain.k_eff
            assert segmented.iterations == plain.iterations
            assert segmented.inner_sweeps == plain.inner_sweeps
            assert np.array_equal(segmented.flux.psi, plain.flux.psi)
