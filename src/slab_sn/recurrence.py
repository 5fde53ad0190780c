"""First-order linear recurrence along the cell axis, shared by both solvers.

The analytic particular solution and the upwind sweep both march

    y_m = a_m y_{m-1} + b_m,   y_{-1} = 0,

cell by cell, independently for every column (block or ordinate), with
coefficients a that stay fixed while the sources b change.  The rows may be
cut into segments, each of which restarts from zero at its first row, as
if a_s were zero there (y_s = b_s): a segmented scan (Blelloch, Prefix sums
and their applications, 1990).  The analytic solver runs every region of
one material and cell width as one segment of a single scan; the sweep
runs the whole slab as one segment.
"""

import numpy as np

from .exceptions import ValidationError


class FirstOrderScan:
    """y[m] = a[m] * y[m-1] + b[m] along axis 0, restarting at each segment.

    a holds one coefficient per row and column, or one row that every row
    shares (a cell axis of length 1, rows then giving the row count), and is
    fixed at construction, as are the segment starts (row indices; row 0
    always starts one).  A caller writes the sources b, real or complex,
    into a workspace in the blocked layout below and scans them there with
    in_place.  The rows are cut into about sqrt(rows) blocks of about
    sqrt(rows) rows, stored block-inner so that row j of every block is one
    contiguous slab: index[m] is row m's row in a workspace buffer
    flattened to (size * count, columns...), through which blocks and
    unblocks copy rows, and last holds each segment's last row there.  One
    pass runs the recurrence inside every block at once, a short pass
    carries each block's last value into the next, and one vectorized
    update adds the carried value times the running product of a to the
    rest of each block.  A scan therefore costs O(sqrt(rows)) whole-array
    operations whatever the number of columns.  In a kept workspace, each
    trip of either loop is two ufunc calls that allocate nothing; they and
    the per-row carry update avoid broadcast and sliced operands, which
    numpy would copy to a buffer.  A shared row is kept as a (block size,
    columns) power table broadcast over the blocks, so it costs no per-row
    memory.

    A segment start is a zero coefficient: the in-block trip of a row that
    holds starts below a block's first row multiplies by a private copy of
    the row with zeros at those blocks.  A carry reaches a row only if no
    start lies between it and its block's first row, a (size, count) mask,
    since a shared row's power table cannot hold zeros for single blocks.
    """

    def __init__(self, a, rows=None, starts=()):
        a = np.asarray(a)
        rows = a.shape[0] if rows is None else rows
        if a.shape[0] not in (1, rows):
            raise ValidationError(
                f"coefficients have {a.shape[0]} rows, expected 1 or {rows}")
        self.shape = (rows,) + a.shape[1:]
        self.size = max(1, int(np.ceil(np.sqrt(rows))))
        self.count = -(-rows // self.size)
        row = np.arange(rows)
        self.index = row % self.size * self.count + row // self.size
        blocks = (self.size, self.count) + a.shape[1:]
        blocked = self.blocks(a) if a.shape[0] == rows else \
            np.broadcast_to(a, (self.size, 1) + a.shape[1:])
        # running product of a inside each block
        prod = np.cumprod(blocked, axis=0)
        self.a = np.broadcast_to(blocked, blocks)
        self.prod = np.broadcast_to(prod, blocks)
        self.shared = a.shape[0] != rows

        starts = np.asarray(starts, dtype=int)
        if np.any((starts < 0) | (starts >= rows)):
            raise ValidationError(f"segment starts must lie in [0, {rows})")
        start = np.zeros(rows, dtype=bool)
        start[0] = True
        start[starts] = True
        # a segment's last row is the one before the next start
        self.last = self.index[np.flatnonzero(np.append(start[1:], True))]
        self.index.setflags(write=False)
        self.last.setflags(write=False)
        self.cut = self.blocks(start)
        # live[j, i]: block i's carry-in still reaches its row j
        live = ~np.logical_or.accumulate(self.cut, axis=0)
        # blocks whose last row a carry reaches
        self.chained = [int(i) for i in np.flatnonzero(live[-1]) if i > 0]
        # the carry update adds -0.0, which leaves every value as it is, to
        # the rows no carry reaches, block 0's among them
        self.dead = np.nonzero(~live[:-1])

    def blocks(self, x) -> np.ndarray:
        """Rows x (rows, ...) in the block-inner layout (size, count, ...),
        zero-padded to whole blocks."""
        out = np.zeros((self.size, self.count) + x.shape[1:], dtype=x.dtype)
        out.reshape((-1,) + x.shape[1:])[self.index] = x
        return out

    def workspace(self, dtype):
        """(y, spare, steps, carries) for calls with this dtype: two
        (size, count, columns...) buffers and, for each trip of the in-block
        pass and of the carry chain, the (coefficient, previous row, row,
        temporary) views it works on.  A kept one is never allocated again."""
        shape = (self.size, self.count) + self.shape[1:]
        # spare starts finite: the carry update multiplies all its rows
        y, spare = np.empty(shape, dtype=dtype), np.zeros(shape, dtype=dtype)
        a = [self.a[0].copy()] * self.size if self.shared else list(self.a)
        for j in np.flatnonzero(self.cut[1:].any(axis=1)) + 1:
            a[j] = a[j].copy()
            a[j][self.cut[j]] = 0
        steps = [(a[j], y[j - 1], y[j], spare[0]) for j in range(1, self.size)]
        carries = [(self.prod[-1, i], y[-1, i - 1], y[-1, i], spare[0, 0])
                   for i in self.chained]
        return y, spare, steps, carries

    def rows(self, buffer) -> np.ndarray:
        """The first rows of a workspace buffer as a (rows, columns...)
        array, free for a caller's use between calls."""
        return buffer.reshape((-1,) + self.shape[1:])[:self.shape[0]]

    def in_place(self, work):
        """Scan the sources written into work[0] there, padding rows too."""
        y, spare, steps, carries = work
        # out= passed by position: keywords cost a trip measurably more
        for a, prev, row, tmp in steps:
            np.add(row, np.multiply(a, prev, tmp), row)
        for prod, prev, row, tmp in carries:
            np.add(row, np.multiply(prod, prev, tmp), row)
        carried = spare[:-1]
        if self.shared:
            np.copyto(carried, self.prod[:-1])
            np.multiply(carried[:, 1:], y[-1:, :-1], out=carried[:, 1:])
        else:
            carried[:, 1:] = y[-1:, :-1]
            np.multiply(self.prod[:-1], carried, out=carried)
        carried[self.dead] = -0.0
        np.add(y[:-1], carried, out=y[:-1])

    def unblocks(self, y) -> np.ndarray:
        """The inverse of blocks: the rows (rows, ...) of y (size, count, ...)."""
        return y.reshape((-1,) + y.shape[2:])[self.index]
