from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from slab_sn import (BoundaryCondition, MaterialXS, ParseError, SlabGeometry, SolverConfig,
                     TransportError, ValidationError, builtin_problem_path, load_problem,
                     save_problem)
from slab_sn.problem_io import GEOMETRY_KEYS, MATERIAL_KEYS, SOLVER_KEYS

FIXTURES = Path(__file__).parent / "fixtures"

# the pincell_reflector fixture carries these cross sections verbatim
PINCELL_XS = {
    "core": {
        "sigma_t": [6.8294e-01, 2.0658e+00],
        "sigma_s": [[6.4870e-01, 2.5869e-02], [4.2114e-04, 1.9696e+00]],
        "nu_sigma_f": [6.0427e-03, 1.5343e-01],
        "chi": [1.0, 0.0],
    },
    "reflector": {
        "sigma_t": [8.9176e-01, 3.0361e+00],
        "sigma_s": [[8.4530e-01, 4.6078e-02], [2.8498e-04, 3.0181e+00]],
        "nu_sigma_f": [0.0, 0.0],
        "chi": [0.0, 0.0],
    },
}


class TestPincellFixture:
    def test_parses_three_regions_two_groups(self, pincell):
        geo = pincell.geometry
        assert geo.n_regions == 3
        assert np.array_equal(geo.edges, [-17.5, -15.0, 15.0, 17.5])
        assert geo.materials == ("reflector", "core", "reflector")
        assert geo.bc_left.kind == "vacuum" and geo.bc_right.kind == "vacuum"
        assert pincell.materials["core"].n_groups == 2

    @pytest.mark.parametrize("name", ["core", "reflector"])
    def test_cross_sections_verbatim(self, pincell, name):
        mat = pincell.materials[name]
        for field, expected in PINCELL_XS[name].items():
            assert np.array_equal(getattr(mat, field), np.array(expected)), field

    def test_solver_section(self, pincell):
        cfg = pincell.config
        assert cfg.sn_order == 16
        assert cfg.fine_mesh_size == 700
        assert cfg.flux_tolerance == 1e-6
        assert cfg.max_outer == 200
        assert cfg.ke is None
        assert cfg.solver_kind == "analytic"


def _assert_problems_equal(a, b):
    assert np.array_equal(a.geometry.edges, b.geometry.edges)
    assert a.geometry.materials == b.geometry.materials
    for side in ("bc_left", "bc_right"):
        bca, bcb = getattr(a.geometry, side), getattr(b.geometry, side)
        assert bca.kind == bcb.kind
        if bca.kind == "incoming":
            assert np.array_equal(bca.values, bcb.values)
    assert set(a.materials) == set(b.materials)
    for name, mat in a.materials.items():
        other = b.materials[name]
        for field in ("sigma_t", "sigma_s", "nu_sigma_f", "chi"):
            assert np.array_equal(getattr(mat, field), getattr(other, field)), (name, field)
        if mat.scatter_kernel is None:
            assert other.scatter_kernel is None
        else:
            assert np.array_equal(mat.scatter_kernel, other.scatter_kernel)
    assert a.config == b.config


VALID = sorted(p.name for p in (FIXTURES / "valid").glob("*.ini"))
INVALID = sorted(p.name for p in (FIXTURES / "invalid").glob("*.ini"))


class TestCorpus:
    @pytest.mark.parametrize("name", VALID)
    def test_valid_inputs_round_trip(self, name, tmp_path):
        problem = load_problem(FIXTURES / "valid" / name)
        out = tmp_path / "roundtrip.ini"
        save_problem(out, problem)
        _assert_problems_equal(problem, load_problem(out))

    def test_pincell_round_trips(self, pincell, tmp_path):
        out = tmp_path / "pincell.ini"
        save_problem(out, pincell)
        _assert_problems_equal(pincell, load_problem(out))

    @pytest.mark.parametrize("name", INVALID)
    def test_invalid_inputs_fail_cleanly(self, name):
        with pytest.raises((ParseError, ValidationError)):
            load_problem(FIXTURES / "invalid" / name)

    def test_corpus_is_populated(self):
        assert len(VALID) >= 4 and len(INVALID) >= 10


class TestSolverKeys:
    def test_table_names_every_config_field_once(self):
        # every section's table names each field of its dataclass once; a
        # material's name is its section's
        for keys, cls in ((GEOMETRY_KEYS, SlabGeometry), (MATERIAL_KEYS, MaterialXS),
                          (SOLVER_KEYS, SolverConfig)):
            named = sorted(field for field, *_ in keys.values())
            assert named == sorted(f.name for f in fields(cls) if f.name != "name"), cls

    def test_every_field_off_its_default_round_trips(self, pincell, tmp_path):
        config = SolverConfig(sn_order=6, fine_mesh_size=333, flux_tolerance=2.5e-7,
                              max_outer=77, ke=1.25, solver_kind="sweep",
                              max_inner=1234)
        default = SolverConfig(sn_order=16)
        assert all(getattr(config, f.name) != getattr(default, f.name)
                   for f in fields(SolverConfig))
        problem = replace(pincell, config=config)
        path = tmp_path / "every_field.ini"
        save_problem(path, problem)
        assert load_problem(path).config == config

    def test_every_optional_key_round_trips_byte_identical(self, pincell, tmp_path):
        # incoming ends, a scatter_kernel and every solver field off its default
        config = SolverConfig(sn_order=2, fine_mesh_size=333, flux_tolerance=2.5e-7,
                              max_outer=77, ke=1.25, solver_kind="sweep",
                              max_inner=1234)
        core = pincell.materials["core"]
        kernel = np.arange(16.0).reshape(4, 4) / 7.0
        geometry = replace(pincell.geometry,
                           bc_left=BoundaryCondition.incoming([0.1, 1.0 / 3.0]),
                           bc_right=BoundaryCondition.incoming([2.5, 0.0]))
        problem = replace(pincell, geometry=geometry, config=config,
                          materials={**pincell.materials,
                                     "core": replace(core, scatter_kernel=kernel)})
        first, second = tmp_path / "first.ini", tmp_path / "second.ini"
        save_problem(first, problem)
        save_problem(second, load_problem(first))
        assert "scatter_kernel =\n    " in first.read_text()
        assert first.read_bytes() == second.read_bytes()


class TestErrorContext:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_problem(tmp_path / "nope.ini")

    def test_parse_error_names_field(self):
        with pytest.raises(TransportError, match=r"edges"):
            load_problem(FIXTURES / "invalid" / "bad_float.ini")

    def test_validation_error_names_invariant(self):
        with pytest.raises(ValidationError, match="increasing"):
            load_problem(FIXTURES / "invalid" / "non_monotone_edges.ini")

    def test_unknown_solver_key_rejected(self):
        with pytest.raises(ParseError, match="turbo"):
            load_problem(FIXTURES / "invalid" / "unknown_solver_key.ini")

    def test_misspelled_optional_key_rejected(self, tmp_path):
        # a misspelled scatter_kernel would otherwise leave scattering isotropic
        text = (FIXTURES / "valid" / "kernel_table.ini").read_text()
        path = tmp_path / "kernal.ini"
        path.write_text(text.replace("scatter_kernel =", "scatter_kernal ="))
        with pytest.raises(ParseError) as exc:
            load_problem(path)
        assert "[materials.aniso] unknown key 'scatter_kernal'" in str(exc.value)


# one bad edit of a valid file per typed check: (old, new), error type and
# message fragment; bytes replace the whole file
ABSORBER = (FIXTURES / "valid" / "absorber.ini").read_text()
PROBLEM_IO_ERRORS = {
    "empty_table": (("sigma_s =\n    0.0", "sigma_s ="), ParseError,
                    "[materials.abs] sigma_s: empty table"),
    "missing_key": (("sigma_t = 1.0\n", ""), ParseError,
                    "[materials.abs] missing required key 'sigma_t'"),
    "empty_boundary": (("bc_left = vacuum", "bc_left ="), ParseError,
                       "[geometry] bc_left: empty boundary condition"),
    "vacuum_values": (("bc_left = vacuum", "bc_left = vacuum 1.0"), ParseError,
                      "[geometry] bc_left: vacuum takes no values"),
    "undecodable": (b"[geometry]\nedges = 0.0 4.0 \xff\xfe\n", ParseError, "codec"),
    "no_materials": (("[materials.abs]", "[notes]"), ParseError,
                     "no [materials.<name>] sections"),
    "infinite_tolerance": (("M = 40", "M = 40\ntolerance = inf"), ValidationError,
                           "flux_tolerance must be finite"),
    "unknown_geometry_key": (("bc_left = vacuum", "bc_left = vacuum\nbc_centre = vacuum"),
                             ParseError, "[geometry] unknown key 'bc_centre'"),
    "unknown_material_key": (("sigma_t = 1.0", "sigma_t = 1.0\nsigma_a = 1.0"), ParseError,
                             "[materials.abs] unknown key 'sigma_a'"),
    "unknown_solver_key": (("M = 40", "M = 40\ntolerence = 1e-8"), ParseError,
                           "[solver] unknown key 'tolerence'"),
    # the diamond closure is gone: a file asking for it must not run step
    "removed_sweep_scheme": (("M = 40", "M = 40\nsweep_scheme = diamond"), ParseError,
                             "[solver] unknown key 'sweep_scheme'"),
    # the start guess and the flux scale come from the slab, not from a knob
    "removed_initial_source": (("M = 40", "M = 40\ninitial_source = flat"), ParseError,
                               "[solver] unknown key 'initial_source'"),
    "removed_normalization": (("M = 40", "M = 40\nnormalization = none"), ParseError,
                              "[solver] unknown key 'normalization'"),
    "unknown_section": (("[materials.abs]", "[materails.abs]\nsigma_t = 1.0\n\n[materials.abs]"),
                        ParseError, "unknown section [materails.abs]"),
}


@pytest.mark.parametrize("case", PROBLEM_IO_ERRORS)
def test_typed_input_errors(case, tmp_path):
    edit, error, fragment = PROBLEM_IO_ERRORS[case]
    path = tmp_path / "bad.ini"
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        assert edit[0] in ABSORBER
        path.write_text(ABSORBER.replace(*edit))
    with pytest.raises(error) as exc:
        load_problem(path)
    assert fragment in str(exc.value)


def test_builtin_problem_path_unknown():
    with pytest.raises(ParseError, match="no built-in"):
        builtin_problem_path("warp_core")
