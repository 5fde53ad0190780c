"""First-order linear recurrence along the cell axis, shared by both solvers.

The analytic particular solution and the upwind sweep both march

    y_m = a_m y_{m-1} + b_m,   y_{-1} = 0,

cell by cell, independently for every column (block or ordinate), with
coefficients a that stay fixed while the sources b change.
"""

import numpy as np

from .exceptions import ValidationError


class FirstOrderScan:
    """y[m] = a[m] * y[m-1] + b[m] along axis 0, starting from zero.

    a holds one coefficient per row and column, or one row that every row
    shares (a cell axis of length 1, rows then giving the row count), and is
    fixed at construction; each call takes b of shape (rows, columns...),
    real or complex.  The rows are cut into about sqrt(rows) blocks of about
    sqrt(rows) rows, stored block-inner so that row j of every block is one
    contiguous slab.  One pass runs the recurrence inside every block at
    once, a short pass carries each block's last value into the next, and
    one vectorized update adds the carried value times the running product
    of a to the rest of each block.  A call therefore costs O(sqrt(rows))
    whole-array operations whatever the number of columns.  A shared row is
    kept as a (block size, columns) power table broadcast over the blocks,
    so it costs no per-row memory.
    """

    def __init__(self, a, rows=None):
        a = np.asarray(a)
        rows = a.shape[0] if rows is None else rows
        if a.shape[0] not in (1, rows):
            raise ValidationError(
                f"coefficients have {a.shape[0]} rows, expected 1 or {rows}")
        self.shape = (rows,) + a.shape[1:]
        self.size = max(1, int(np.ceil(np.sqrt(rows))))
        self.count = -(-rows // self.size)
        blocked = self._blocks(a, a.dtype) if a.shape[0] == rows else \
            np.broadcast_to(a, (self.size, 1) + a.shape[1:])
        # running product of a inside each block
        prod = np.cumprod(blocked, axis=0)
        blocks = (self.size, self.count) + a.shape[1:]
        self.a = np.broadcast_to(blocked, blocks)
        self.prod = np.broadcast_to(prod, blocks)

    def _blocks(self, x, dtype):
        """Copy of x in block-inner layout, zero-padded to whole blocks."""
        out = np.zeros((self.size, self.count) + x.shape[1:], dtype=dtype)
        full = x.shape[0] // self.size
        out.swapaxes(0, 1)[:full] = x[:full * self.size].reshape(
            (full, self.size) + x.shape[1:])
        if full < self.count:
            out[:x.shape[0] - full * self.size, full] = x[full * self.size:]
        return out

    def __call__(self, b) -> np.ndarray:
        b = np.asarray(b)
        if b.shape != self.shape:
            raise ValidationError(f"b has shape {b.shape}, the coefficients {self.shape}")
        y = self._blocks(b, np.result_type(self.a, b))
        for j in range(1, self.size):
            y[j] += self.a[j] * y[j - 1]
        for i in range(1, self.count):
            y[-1, i] += self.prod[-1, i] * y[-1, i - 1]
        y[:-1, 1:] += self.prod[:-1, 1:] * y[-1:, :-1]
        return y.swapaxes(0, 1).reshape((-1,) + self.shape[1:])[:self.shape[0]]
