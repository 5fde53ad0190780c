"""In-memory spans recorded around calls into the package's modules.

The benchmark swaps module attributes for timing wrappers only while a
traced solve runs, so untraced solves run the package unchanged. A span is
(name, start, end, parent index, solve id); a span's self time is its
duration minus the durations of its direct children.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) swapped for a wrapper. Each module
# attribute is the one its caller looks up at call time.
BOUNDARIES = {
    "mesh.build_fine_mesh": ("slab_sn.eigen", "build_fine_mesh"),
    "spectral.assemble_A": ("slab_sn.eigen", "assemble_A"),
    "spectral.block_diagonalize": ("slab_sn.eigen", "block_diagonalize"),
    "analytic.fixed_source_solve": ("slab_sn.eigen", "fixed_source_solve"),
    "analytic.solve_fixed_source": ("slab_sn.analytic", "solve_fixed_source"),
    "analytic.solve_alpha": ("slab_sn.analytic", "solve_alpha"),
    "sweep.source_iteration": ("slab_sn.eigen", "source_iteration"),
    "eigen.update_keff": ("slab_sn.eigen", "update_keff"),
}

# boundaries a solver never reaches by design
IDLE_BY_SOLVER = {
    "analytic": {"sweep.source_iteration"},
    "sweep": {"spectral.assemble_A", "spectral.block_diagonalize",
              "analytic.fixed_source_solve", "analytic.solve_fixed_source",
              "analytic.solve_alpha"},
}

ROOT = "eigen.power_iteration"


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, solve_id]
        self._stack = []
        self.solve_id = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, parent, self.solve_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def installed(self, boundaries=BOUNDARIES):
        """Swap every boundary for its wrapper; restore on exit."""
        saved = []
        try:
            for name, (mod_name, attr) in boundaries.items():
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def solve(self, fn, *args, **kwargs):
        """Run fn as the root span of a new solve id."""
        self.solve_id += 1
        return self.wrap(ROOT, fn)(*args, **kwargs)

    def layer_times(self, solve_id):
        """Per-name (total, self, calls) for one solve."""
        child = defaultdict(float)
        for start, end, parent, sid in (s[1:] for s in self.spans):
            if sid == solve_id and parent is not None:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, sid) in enumerate(self.spans):
            if sid == solve_id:
                total[name] += end - start
                own[name] += end - start - child[i]
                calls[name] += 1
        return total, own, calls

    def to_json(self):
        return [{"name": n, "start": a, "end": b, "parent": p, "solve": sid}
                for n, a, b, p, sid in self.spans]
