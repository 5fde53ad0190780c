"""Multigroup discrete-ordinates neutron transport in slab geometry.

An analytic per-region eigensystem fixed-source solver, a traditional
sweeping baseline, and a power-iteration eigenvalue driver with optional
Wielandt shift, plus a benchmark harness comparing the two solvers.
"""

from .analytic import (FixedSourceOperator, evaluate_flux, fixed_source_solve,
                       solve_alpha, solve_fixed_source)
from .bench import BenchmarkReport, cell_name, default_cells, run_benchmark
from .eigen import (EigenResult, build_operator, power_iteration, solve_source,
                    update_keff)
from .exceptions import (DefectiveMatrixError, ExponentOverflowError,
                         MaxInnerIterationsError, MaxOuterIterationsError,
                         MeshAlignmentError, NonpositiveIntegralError,
                         ParseError, PointOutOfDomainError,
                         ShiftAtEigenvalueError, SingularSystemError,
                         TransportError, ValidationError, ZeroFluxError)
from .mesh import (FineMesh, FluxField, Solution, SourceField,
                   build_fine_mesh, mesh_from_edges)
from .model import (BoundaryCondition, MaterialXS, QuadratureSet,
                    SlabGeometry, SolverConfig, gauss_legendre,
                    validate_problem)
from .problem_io import Problem, builtin_problem_path, load_problem, save_problem
from .spectral import BlockSpectrum, assemble_A, block_diagonalize
from .sweep import SweepOperator, source_iteration

__version__ = "0.1.0"
