"""First-order linear recurrence along the cell axis, shared by both solvers.

The analytic particular solution and the upwind sweep both march

    y_m = a_m y_{m-1} + b_m,   y_{-1} = 0,

cell by cell, independently for every column (block or ordinate), with
coefficients a that stay fixed while the sources b change.  The rows may be
cut into segments, each of which restarts from zero at its first row
(y_s = b_s): a segmented scan (Blelloch, Prefix sums and their
applications, 1990).  The analytic solver runs every region of one material
and cell width as one segment of a single scan; the sweep runs the whole
slab as one segment.
"""

import numpy as np

from .exceptions import ValidationError


class FirstOrderScan:
    """y[m] = a[m] * y[m-1] + b[m] along axis 0, restarting at each segment.

    a holds one coefficient per row and column, or one row that every row
    shares (a cell axis of length 1, rows then giving the row count), and is
    fixed at construction, as are the segment starts (row indices; row 0
    always starts one).  Each call takes b of shape (rows, columns...), real
    or complex.  The rows are cut into about sqrt(rows) blocks of about
    sqrt(rows) rows, stored block-inner so that row j of every block is one
    contiguous slab.  One pass runs the recurrence inside every block at
    once, a short pass carries each block's last value into the next, and
    one vectorized update adds the carried value times the running product
    of a to the rest of each block.  A call therefore costs O(sqrt(rows))
    whole-array operations whatever the number of columns.  A shared row is
    kept as a (block size, columns) power table broadcast over the blocks,
    so it costs no per-row memory.

    A segment start acts as a zero coefficient, kept as a (rows,) mask
    rather than in a: the in-block pass puts b back at every start it
    overwrote, and a carry reaches a row only if no start lies between it
    and its block's first row.
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
        blocks = (self.size, self.count) + a.shape[1:]
        blocked = self._blocks(a, np.empty(blocks, dtype=a.dtype)) if a.shape[0] == rows else \
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
        cut = self._blocks(start, np.empty((self.size, self.count), dtype=bool))
        # live[j, i]: block i's carry-in still reaches its row j
        live = ~np.logical_or.accumulate(cut, axis=0)
        live = live.reshape(live.shape + (1,) * (a.ndim - 1))
        # blocks whose last row a carry reaches
        self.chained = [int(i) for i in np.flatnonzero(live[-1].ravel()) if i > 0]
        self.live = True if live[:-1, 1:].all() else live[:-1, 1:]
        # the in-block pass restores b at the starts below a block's first
        # row; restarts maps such a row j to its slice of restart_rows and
        # restart_blocks
        self.restart_rows, self.restart_blocks = np.nonzero(cut[1:])
        self.restart_rows += 1
        rows_j, first = np.unique(self.restart_rows, return_index=True)
        self.restarts = {int(j): slice(lo, hi) for j, lo, hi in
                         zip(rows_j, first, np.append(first[1:], self.restart_rows.size))}

    def _blocks(self, x, out):
        """x in out (size, count, columns...) in block-inner layout,
        zero-padded to whole blocks."""
        full = x.shape[0] // self.size
        out.swapaxes(0, 1)[:full] = x[:full * self.size].reshape(
            (full, self.size) + x.shape[1:])
        if full < self.count:
            tail = x.shape[0] - full * self.size
            out[:tail, full] = x[full * self.size:]
            out[tail:, full] = 0
        return out

    def workspace(self, dtype):
        """Buffers for calls with this dtype: the blocked iterate and the
        carry update's product, each (size, count, columns...).  A caller
        that passes the same pair to every call saves their allocation; an
        allocator that returns large freed blocks to the system would fault
        their pages in again on every call."""
        shape = (self.size, self.count) + self.shape[1:]
        return np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype)

    def rows(self, buffer) -> np.ndarray:
        """The first rows of a workspace buffer as a (rows, columns...)
        array, free for a caller's use between calls."""
        return buffer.reshape((-1,) + self.shape[1:])[:self.shape[0]]

    def __call__(self, b, out=None, work=None) -> np.ndarray:
        """y for sources b, written into out (rows, columns...) when given,
        computed in work (a workspace pair) when given.  b may be
        rows(work[1]): a call reads b in full before it writes there."""
        b = np.asarray(b)
        if b.shape != self.shape:
            raise ValidationError(f"b has shape {b.shape}, the coefficients {self.shape}")
        if work is None:
            # a fresh iterate, and the carry product a temporary
            work = (np.empty((self.size, self.count) + self.shape[1:],
                             dtype=np.result_type(self.a, b)), None)
        y, spare = work
        self._blocks(b, y)
        held = y[self.restart_rows, self.restart_blocks]
        for j in range(1, self.size):
            y[j] += self.a[j] * y[j - 1]
            cut = self.restarts.get(j)
            if cut is not None:
                y[j, self.restart_blocks[cut]] = held[cut]
        for i in self.chained:
            y[-1, i] += self.prod[-1, i] * y[-1, i - 1]
        carried = np.multiply(self.prod[:-1, 1:], y[-1:, :-1],
                              out=None if spare is None else spare[:-1, 1:])
        np.add(y[:-1, 1:], carried, out=y[:-1, 1:], where=self.live)
        if out is None:
            return y.swapaxes(0, 1).reshape((-1,) + self.shape[1:])[:self.shape[0]]
        # the inverse of _blocks
        rows = self.shape[0]
        full = rows // self.size
        out[:full * self.size].reshape((full, self.size) + self.shape[1:])[...] = \
            y[:, :full].swapaxes(0, 1)
        if full < self.count:
            out[full * self.size:] = y[:rows - full * self.size, full]
        return out
