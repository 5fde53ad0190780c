"""Workload table and seeded input generator.

Every workload starts from the shipped two-group pincell
(``pincell_reflector.ini``: 30 cm core between 2.5 cm water reflectors,
vacuum ends). Only ``split60`` uses the seed: it cuts the same slab into 60
homogeneous regions at seeded points of the 0.5 cm grid. Each generated
problem is written with ``save_problem`` and read back with
``load_problem``, so the solver and the CLI see the same file.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

BASE = "pincell_reflector"
GRID_CM = 0.5            # cut points sit on this grid, so cells stay whole
SPLIT_REGIONS = 60


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    solver_kind: str
    sn_order: int
    mesh: int
    ke: Optional[float] = None
    split: bool = False
    cli_reps: int = 1
    # reference (k_eff, outer iterations) from the unmodified package;
    # None means the reference is computed live (split60)
    reference: Optional[tuple] = None


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pincell",
        why="paper headline case: analytic S16, M=700, 22 outers; per-outer "
            "region precompute and evaluation dominate",
        solver_kind="analytic", sn_order=16, mesh=700, cli_reps=3,
        reference=(1.2497403355711538, 22)),
    Workload(
        name="split60",
        why="pincell at S6, M=700 cut into 60 regions at seeded points: the "
            "dense global solve dominates; the only case where region count drives cost",
        solver_kind="analytic", sn_order=6, mesh=700, split=True, cli_reps=2),
    Workload(
        name="finemesh",
        why="analytic S16, M=20000, Wielandt k_e=1.3: per-cell recurrence and "
            "evaluation dominate, complex-pair path runs, large CSV output",
        solver_kind="analytic", sn_order=16, mesh=20000, ke=1.3, cli_reps=2,
        reference=(1.2497415204593336, 6)),
    Workload(
        name="sweep",
        why="paper baseline: step sweep S8, M=700, 21 outers and about 7300 "
            "sweeps; the only workload that exercises the sweep layer",
        solver_kind="sweep", sn_order=8, mesh=700, cli_reps=2,
        reference=(1.245843313327492, 21)),
)}


def split_edges(base_edges, seed: int):
    """Edges of the 60-region split and the seeded cut points used.

    The material interfaces of the base slab are always kept; the other
    interior edges are drawn without replacement from the 0.5 cm grid.
    """
    lo, hi = float(base_edges[0]), float(base_edges[-1])
    n_grid = int(round((hi - lo) / GRID_CM))
    keep = {int(round((e - lo) / GRID_CM)) for e in base_edges[1:-1]}
    free = [i for i in range(1, n_grid) if i not in keep]
    n_cuts = SPLIT_REGIONS - 1 - len(keep)
    rng = np.random.default_rng(seed)
    cuts = sorted(int(i) for i in rng.choice(free, size=n_cuts, replace=False))
    interior = sorted(keep | set(cuts))
    edges = np.array([lo] + [lo + GRID_CM * i for i in interior] + [hi])
    return edges, [lo + GRID_CM * i for i in cuts]


def base_problem(slab_sn):
    return slab_sn.load_problem(slab_sn.builtin_problem_path(BASE))


def make_problem(slab_sn, workload: Workload, seed: int):
    """(problem, generator record) for one workload and seed."""
    base = base_problem(slab_sn)
    config = replace(base.config, solver_kind=workload.solver_kind,
                     sn_order=workload.sn_order, fine_mesh_size=workload.mesh,
                     ke=workload.ke)
    geometry = base.geometry
    record = {"base": BASE, "uses_seed": workload.split}
    if workload.split:
        edges, cuts = split_edges(geometry.edges, seed)
        mids = 0.5 * (edges[:-1] + edges[1:])
        region = np.searchsorted(geometry.edges[1:], mids)
        materials = tuple(geometry.materials[r] for r in region)
        geometry = replace(geometry, edges=edges, materials=materials)
        record["cut_points_cm"] = cuts
        record["regions"] = geometry.n_regions
    return replace(base, geometry=geometry, config=config), record
