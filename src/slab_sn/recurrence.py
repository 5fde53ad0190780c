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

The scan works on blocks of rows, and the coefficients' layout picks how
it carries the block ends: per-row coefficients (the sweep, graded
analytic groups) by doubling (Hillis & Steele, Data parallel algorithms,
1986) over blocks of ceil(sqrt(rows / log2(rows))) rows, one shared row
serially over blocks of ceil(sqrt(rows)) rows.  Beside the blocked
iterate, a workspace keeps a scratch of at most SCAN_CHUNK rows.
"""

import numpy as np

from .exceptions import ValidationError

# rows of a workspace's scratch, in whole block rows, at least one: a scan
# of at most this many rows (the sweep, the pincell and split60 groups at
# M = 700) keeps a whole second buffer and carries in one chunk
SCAN_CHUNK = 3072


class FirstOrderScan:
    """y[m] = a[m] * y[m-1] + b[m] along axis 0, restarting at each segment.

    a holds one coefficient per row and column, or one row that every row
    shares (a cell axis of length 1, rows then giving the row count), and is
    fixed at construction, as are the segment starts (row indices; row 0
    always starts one).  A caller writes the sources b, real or complex,
    into a workspace in the blocked layout below and scans them there with
    in_place.  The rows are cut into count blocks of size rows, stored
    block-inner so that row j of every block is one contiguous slab:
    index[m] is row m's row in a workspace buffer flattened to (size *
    count, columns...), through which blocks and unblocks copy rows, and
    last holds each segment's last row there.  One pass runs the recurrence
    inside every block at once, a chain carries each block's last value
    into the blocks after it, and one vectorized update adds the carried
    value times the running product of a to the rest of each block, chunk
    block rows at a time.

    The layout of a picks the chain.  One shared row carries the block
    ends serially, one block at a time, trip i adding block i - 1's end
    times the block total to block i's, over blocks of ceil(sqrt(rows))
    rows: its running product is a (block size, columns) power table
    broadcast over the blocks, so it costs no per-row memory.  Per-row
    coefficients carry them by doubling: trip t adds to every block end the
    end 2**t blocks back times tables[t], the product of the block totals
    between them, ceil(log2(count)) trips in all.  Their blocks of
    ceil(sqrt(rows / log2(rows))) rows balance the in-block trips against
    those.  Either way a scan costs O(sqrt(rows)) whole-array operations
    whatever the number of columns.  In a kept
    workspace, each trip is two ufunc calls that allocate nothing; they and
    the per-row carry update avoid broadcast and sliced operands, which
    numpy would copy to a buffer.

    A segment start is a zero coefficient: the in-block trip of a row that
    holds starts below a block's first row multiplies by a private copy of
    the row with zeros at those blocks, and the serial chain skips, and
    the doubling tables zero, the total of a block that holds a start.  A
    carry reaches a row only if no start lies between it and its block's
    first row, a (size, count) mask, since a shared row's power table
    cannot hold zeros for single blocks.
    """

    def __init__(self, a, rows=None, starts=()):
        a = np.asarray(a)
        rows = a.shape[0] if rows is None else rows
        if a.shape[0] not in (1, rows):
            raise ValidationError(
                f"coefficients have {a.shape[0]} rows, expected 1 or {rows}")
        self.shape = (rows,) + a.shape[1:]
        self.shared = a.shape[0] != rows
        # the in-block trips balance the chain's: count - 1 serial trips or
        # ceil(log2(count)) doubling ones
        depth = 1.0 if self.shared else max(1.0, np.log2(rows))
        self.size = max(1, int(np.ceil(np.sqrt(rows / depth))))
        self.count = -(-rows // self.size)
        row = np.arange(rows)
        self.index = row % self.size * self.count + row // self.size
        # block rows in a workspace's scratch
        self.chunk = max(1, min(self.size, SCAN_CHUNK // self.count))
        blocks = (self.size, self.count) + a.shape[1:]
        blocked = self.blocks(a) if a.shape[0] == rows else \
            np.broadcast_to(a, (self.size, 1) + a.shape[1:])
        # running product of a inside each block
        prod = np.cumprod(blocked, axis=0)
        self.a = np.broadcast_to(blocked, blocks)
        self.prod = np.broadcast_to(prod, blocks)

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
        # the carry update adds -0.0, which leaves every value as it is, to
        # the rows no carry reaches: block 0's, and in later blocks those at
        # and behind an interior segment start (a mask, None for none)
        dead = ~live[:-1]
        dead[:, 0] = False
        self.dead = dead if dead.any() else None
        if self.shared:
            # blocks whose last row a carry reaches
            self.chained = [int(i) for i in np.flatnonzero(live[-1]) if i > 0]
        else:
            # tables[t][i - 2**t]: the product of the block totals of blocks
            # i - 2**t + 1 .. i, zero if a segment starts in any of them
            total = np.where(live[-1].reshape((-1,) + (1,) * (a.ndim - 1)), prod[-1], 0)
            self.tables, k, t = [], 1, total[1:]
            while k < self.count:
                self.tables.append(t)
                t, k = t[k:] * t[:-k], 2 * k

    def blocks(self, x) -> np.ndarray:
        """Rows x (rows, ...) in the block-inner layout (size, count, ...),
        zero-padded to whole blocks."""
        out = np.zeros((self.size, self.count) + x.shape[1:], dtype=x.dtype)
        out.reshape((-1,) + x.shape[1:])[self.index] = x
        return out

    def workspace(self, dtype):
        """(y, scratch, trips, carries) for calls with this dtype: the
        iterate y (size, count, columns...), a scratch of chunk block rows,
        for each trip of the in-block pass and of the carry chain the
        (coefficient, previous, row, temporary) views it works on, and for
        each chunk of the carry update its (carried, running product, rows,
        dead rows or None) views.  A kept one is never allocated again."""
        shape = (self.size, self.count) + self.shape[1:]
        # scratch starts finite: the carry update multiplies all its rows
        y = np.empty(shape, dtype=dtype)
        scratch = np.zeros((self.chunk,) + shape[1:], dtype=dtype)
        a = [self.a[0].copy()] * self.size if self.shared else list(self.a)
        for j in np.flatnonzero(self.cut[1:].any(axis=1)) + 1:
            a[j] = a[j].copy()
            a[j][self.cut[j]] = 0
        trips = [(a[j], y[j - 1], y[j], scratch[0]) for j in range(1, self.size)]
        if self.shared:
            trips += [(self.prod[-1, i], y[-1, i - 1], y[-1, i], scratch[0, 0])
                      for i in self.chained]
        else:
            trips += [(t, y[-1, :len(t)], y[-1, self.count - len(t):], scratch[0, :len(t)])
                      for t in self.tables]
        carries = []
        for j in range(0, self.size - 1, self.chunk):
            k = min(j + self.chunk, self.size - 1)
            dead = None if self.dead is None else np.nonzero(self.dead[j:k])
            carries.append((scratch[:k - j], self.prod[j:k], y[j:k], dead))
        return y, scratch, trips, carries

    def in_place(self, work):
        """Scan the sources written into work[0] there, padding rows too."""
        y, _, trips, carries = work
        # out= passed by position: keywords cost a trip measurably more
        for a, prev, row, tmp in trips:
            np.add(row, np.multiply(a, prev, tmp), row)
        for carried, prod, rows, dead in carries:
            if self.shared:
                np.copyto(carried, prod)
                np.multiply(carried[:, 1:], y[-1:, :-1], out=carried[:, 1:])
            else:
                carried[:, 1:] = y[-1:, :-1]
                np.multiply(prod, carried, out=carried)
            carried[:, 0] = -0.0
            if dead is not None:
                carried[dead] = -0.0
            np.add(rows, carried, out=rows)

    def unblocks(self, y) -> np.ndarray:
        """The inverse of blocks: the rows of y (size, count, columns...)."""
        if np.shape(y) != (shape := (self.size, self.count) + self.shape[1:]):
            raise ValidationError(f"blocked array has shape {np.shape(y)}, expected {shape}")
        return y.reshape((-1,) + y.shape[2:])[self.index]
