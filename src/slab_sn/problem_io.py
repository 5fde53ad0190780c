"""Problem file parsing and serialization.

A problem is one INI-style text file with three kinds of sections::

    [geometry]
    edges = -17.5 -15.0 15.0 17.5     # region interfaces, cm, increasing
    materials = reflector core reflector
    bc_left = vacuum                  # vacuum | reflective | incoming v1 v2 ...
    bc_right = vacuum

    [materials.<name>]                # one section per material
    sigma_t = ...                     # G entries, cm^-1
    sigma_s =                         # G rows of G entries, row g' holds g'->g
        ...
    nu_sigma_f = ...                  # G entries
    chi = ...                         # G entries
    scatter_kernel =                  # optional, N*G rows of N*G entries

    [solver]
    N = 16                            # S_N order, even
    M = 700                           # fine source mesh size
    tolerance = 1e-6                  # flux-change convergence threshold
    max_outer = 200
    solver_kind = analytic            # analytic | sweep
    ke = 1.3                          # optional Wielandt shift
    max_inner = 5000                  # sweep inner iteration budget

Values are whitespace-separated floats; multi-row tables use indented
continuation lines.  Each section is read and written through its key
table, so an unknown key or section is a ParseError.  Floats are written
with repr, so a save -> load round trip reproduces every value bit-exactly.
"""

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import ParseError
from .model import (BoundaryCondition, MaterialXS, SlabGeometry, SolverConfig,
                    validate_problem)

MATERIAL_PREFIX = "materials."


@dataclass(frozen=True)
class Problem:
    """A parsed and validated problem definition."""

    geometry: SlabGeometry
    materials: dict
    config: SolverConfig


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in np.atleast_1d(values))


def _table(text: str) -> np.ndarray:
    rows = [_floats(line) for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty table")
    if any(r.size != rows[0].size for r in rows):
        raise ValueError("ragged table rows")
    return np.vstack(rows)


def _fmt_table(table) -> str:
    return "".join(f"\n    {_fmt(row)}" for row in table)


def _boundary(text: str) -> BoundaryCondition:
    kind, *values = text.split() or [None]
    if kind is None:
        raise ValueError("empty boundary condition")
    if kind in ("vacuum", "reflective"):
        if values:
            raise ValueError(f"{kind} takes no values")
        return BoundaryCondition(kind)
    if kind == "incoming":
        if not values:
            raise ValueError("incoming needs N*G/2 flux values")
        return BoundaryCondition.incoming(_floats(" ".join(values)))
    raise ValueError(f"unknown boundary condition {kind!r}")


def _fmt_boundary(bc: BoundaryCondition) -> str:
    return bc.kind if bc.values is None else f"{bc.kind} {_fmt(bc.values)}"


# each section's keys, in the order save_problem writes them: key ->
# (dataclass field, parser of the text (a ValueError names the key), writer
# of the value, required)
GEOMETRY_KEYS = {
    "edges": ("edges", _floats, _fmt, True),
    "materials": ("materials", str.split, " ".join, True),
    "bc_left": ("bc_left", _boundary, _fmt_boundary, True),
    "bc_right": ("bc_right", _boundary, _fmt_boundary, True),
}
MATERIAL_KEYS = {
    "sigma_t": ("sigma_t", _floats, _fmt, True),
    "sigma_s": ("sigma_s", _table, _fmt_table, True),
    "nu_sigma_f": ("nu_sigma_f", _floats, _fmt, True),
    "chi": ("chi", _floats, _fmt, True),
    "scatter_kernel": ("scatter_kernel", _table, _fmt_table, False),
}
SOLVER_KEYS = {
    "N": ("sn_order", int, repr, True),
    "M": ("fine_mesh_size", int, repr, False),
    "tolerance": ("flux_tolerance", float, _fmt, False),
    "max_outer": ("max_outer", int, repr, False),
    "ke": ("ke", float, _fmt, False),
    "solver_kind": ("solver_kind", str, str, False),
    "max_inner": ("max_inner", int, repr, False),
}


def _read(cp, section: str, keys: dict) -> dict:
    """The section's values by field name, through its key table."""
    for key in cp.options(section):     # lower-cased by configparser
        if key not in {k.lower() for k in keys}:
            raise ParseError(f"[{section}] unknown key {key!r}")
    values = {}
    for key, (field, parse, _, required) in keys.items():
        if not cp.has_option(section, key):
            if required:
                raise ParseError(f"[{section}] missing required key {key!r}")
            continue
        try:
            values[field] = parse(cp.get(section, key))
        except ValueError as exc:
            raise ParseError(f"[{section}] {key}: {exc}") from None
    return values


def load_problem(path) -> Problem:
    """Parse and validate a problem file.

    Raises ParseError with section/field context on malformed input and
    ValidationError naming the violated invariant on inconsistent values.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"problem file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None

    for section in ("geometry", "solver"):
        if not cp.has_section(section):
            raise ParseError(f"{path}: missing [{section}] section")
    names = [s[len(MATERIAL_PREFIX):] for s in cp.sections() if s.startswith(MATERIAL_PREFIX)]
    if not names:
        raise ParseError(f"{path}: no [materials.<name>] sections")
    for section in cp.sections():
        if section not in ("geometry", "solver") and not section.startswith(MATERIAL_PREFIX):
            raise ParseError(f"{path}: unknown section [{section}]")
    materials = {name: MaterialXS(name, **_read(cp, MATERIAL_PREFIX + name, MATERIAL_KEYS))
                 for name in names}
    geometry = SlabGeometry(**_read(cp, "geometry", GEOMETRY_KEYS))
    config = SolverConfig(**_read(cp, "solver", SOLVER_KEYS))
    validate_problem(geometry, materials, config)
    return Problem(geometry=geometry, materials=materials, config=config)


def save_problem(path, problem: Problem) -> None:
    """Serialize a problem; parsing the output reproduces it exactly."""
    mats = problem.materials
    sections = [("geometry", GEOMETRY_KEYS, problem.geometry),
                *((MATERIAL_PREFIX + name, MATERIAL_KEYS, mats[name]) for name in sorted(mats)),
                ("solver", SOLVER_KEYS, problem.config)]
    lines = []
    for section, keys, obj in sections:
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {write(getattr(obj, field))}"
                  for key, (field, _, write, _) in keys.items() if getattr(obj, field) is not None]
    # a table's rows start on the line after its key, which ends in "="
    Path(path).write_text("\n".join(lines[1:]).replace(" \n", "\n") + "\n")


def builtin_problem_path(name: str) -> Path:
    """Path of a problem file shipped with the package (e.g. 'pincell_reflector')."""
    ref = resources.files("slab_sn") / "problems" / f"{name}.ini"
    if not ref.is_file():
        raise ParseError(f"no built-in problem named {name!r}")
    return Path(str(ref))
