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
    normalization = total_scalar_flux_one   # or none
    initial_source = absx             # absx | flat
    max_inner = 5000                  # sweep inner iteration budget
    sweep_scheme = step               # step | diamond

Values are whitespace-separated floats; multi-row tables use indented
continuation lines.  Serialization writes floats with repr so a
serialize -> parse round trip reproduces every value bit-exactly.
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

# [solver] key -> (SolverConfig field, type); save_problem writes this order
SOLVER_KEYS = {
    "N": ("sn_order", int),
    "M": ("fine_mesh_size", int),
    "tolerance": ("flux_tolerance", float),
    "max_outer": ("max_outer", int),
    "ke": ("ke", float),
    "solver_kind": ("solver_kind", str),
    "normalization": ("normalization", str),
    "initial_source": ("initial_source", str),
    "max_inner": ("max_inner", int),
    "sweep_scheme": ("sweep_scheme", str),
}


@dataclass(frozen=True)
class Problem:
    """A parsed and validated problem definition."""

    geometry: SlabGeometry
    materials: dict
    config: SolverConfig


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _convert(section: str, key: str, text: str, kind=_floats):
    """kind(text), a ValueError becoming a ParseError that names the key."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: {exc}") from None


def _table(section: str, key: str, text: str) -> np.ndarray:
    rows = [_convert(section, key, line) for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ParseError(f"[{section}] {key}: empty table")
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ParseError(f"[{section}] {key}: ragged table rows")
    return np.vstack(rows)


def _require(cp, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ParseError(f"[{section}] missing required key {key!r}")
    return cp.get(section, key)


def _boundary(section: str, key: str, text: str) -> BoundaryCondition:
    parts = text.split()
    if not parts:
        raise ParseError(f"[{section}] {key}: empty boundary condition")
    kind = parts[0]
    if kind in ("vacuum", "reflective"):
        if len(parts) > 1:
            raise ParseError(f"[{section}] {key}: {kind} takes no values")
        return BoundaryCondition(kind)
    if kind == "incoming":
        if len(parts) == 1:
            raise ParseError(f"[{section}] {key}: incoming needs N*G/2 flux values")
        return BoundaryCondition.incoming(_convert(section, key, " ".join(parts[1:])))
    raise ParseError(f"[{section}] {key}: unknown boundary condition {kind!r}")


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

    materials = {}
    for section in cp.sections():
        if not section.startswith(MATERIAL_PREFIX):
            continue
        name = section[len(MATERIAL_PREFIX):]
        kwargs = {
            "name": name,
            "sigma_t": _convert(section, "sigma_t", _require(cp, section, "sigma_t")),
            "sigma_s": _table(section, "sigma_s", _require(cp, section, "sigma_s")),
            "nu_sigma_f": _convert(section, "nu_sigma_f", _require(cp, section, "nu_sigma_f")),
            "chi": _convert(section, "chi", _require(cp, section, "chi")),
        }
        if cp.has_option(section, "scatter_kernel"):
            kwargs["scatter_kernel"] = _table(section, "scatter_kernel",
                                              cp.get(section, "scatter_kernel"))
        materials[name] = MaterialXS(**kwargs)
    if not materials:
        raise ParseError(f"{path}: no [materials.<name>] sections")

    sec = "geometry"
    geometry = SlabGeometry(
        edges=_convert(sec, "edges", _require(cp, sec, "edges")),
        materials=tuple(_require(cp, sec, "materials").split()),
        bc_left=_boundary(sec, "bc_left", _require(cp, sec, "bc_left")),
        bc_right=_boundary(sec, "bc_right", _require(cp, sec, "bc_right")),
    )
    _require(cp, "solver", "N")
    kwargs = {field: _convert("solver", key, cp.get("solver", key), kind)
              for key, (field, kind) in SOLVER_KEYS.items() if cp.has_option("solver", key)}
    for key in cp.options("solver"):
        if key not in {k.lower() for k in SOLVER_KEYS}:
            raise ParseError(f"[solver] unknown key {key!r}")
    config = SolverConfig(**kwargs)
    validate_problem(geometry, materials, config)
    return Problem(geometry=geometry, materials=materials, config=config)


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in np.atleast_1d(values))


def save_problem(path, problem: Problem) -> None:
    """Serialize a problem; parsing the output reproduces it exactly."""
    geo, cfg = problem.geometry, problem.config
    lines = ["[geometry]",
             f"edges = {_fmt(geo.edges)}",
             f"materials = {' '.join(geo.materials)}"]
    for key, bc in (("bc_left", geo.bc_left), ("bc_right", geo.bc_right)):
        if bc.kind == "incoming":
            lines.append(f"{key} = incoming {_fmt(bc.values)}")
        else:
            lines.append(f"{key} = {bc.kind}")
    for name in sorted(problem.materials):
        mat = problem.materials[name]
        lines += ["", f"[{MATERIAL_PREFIX}{name}]",
                  f"sigma_t = {_fmt(mat.sigma_t)}",
                  "sigma_s ="]
        lines += [f"    {_fmt(row)}" for row in mat.sigma_s]
        lines += [f"nu_sigma_f = {_fmt(mat.nu_sigma_f)}",
                  f"chi = {_fmt(mat.chi)}"]
        if mat.scatter_kernel is not None:
            lines.append("scatter_kernel =")
            lines += [f"    {_fmt(row)}" for row in mat.scatter_kernel]
    lines += ["", "[solver]"]
    for key, (field, kind) in SOLVER_KEYS.items():
        value = getattr(cfg, field)
        if value is not None:
            lines.append(f"{key} = {value if kind is str else repr(kind(value))}")
    Path(path).write_text("\n".join(lines) + "\n")


def builtin_problem_path(name: str) -> Path:
    """Path of a problem file shipped with the package (e.g. 'pincell_reflector')."""
    ref = resources.files("slab_sn") / "problems" / f"{name}.ini"
    if not ref.is_file():
        raise ParseError(f"no built-in problem named {name!r}")
    return Path(str(ref))
