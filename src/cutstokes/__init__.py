"""Unfitted divergence-free Stokes discretization on level-set domains.

The package solves the Stokes equations on a domain given implicitly as
{phi < 0} inside a fixed background box.  The background mesh never fits the
boundary: a barycentric (Alfeld) split of the cut cells carries an
isoparametric Scott-Vogelius pair, so the discrete velocity is pointwise
divergence free, with Nitsche boundary terms, a pressure-trace multiplier
and ghost penalties supplying stability on the cut band.

Typical use goes through the study drivers:

    from cutstokes import StudyConfig, run_convergence
    rows = run_convergence(StudyConfig(example=1, levels=3))

or, for a custom geometry, through the level pipeline: `build_geometry`
(structured mesh of size h -> level set -> classification -> deformation
-> quadrature) and `assemble_level` (velocity space -> `build_saddle_system`,
which builds the other spaces and every block), which `solve_level` follows
with the solve and the pressure post-process.
Every stage is also importable from its module.  Each takes the object
built before it: only `interpolate_p1` (or `IsoDeformation.identity`) takes
the mesh, and the objects built on them read it as `am`.
"""

from .meshing import (MacroMesh, AlfeldMesh, ElementSets,
                      build_background_mesh, alfeld_split, classify_elements,
                      EmptyActiveDomainError)
from .geometry import (LevelSet, DiscreteLevelSet, IsoDeformation,
                       CutQuadrature, GeometryError, interpolate_p1,
                       build_deformation, build_quadratures, cut_subdivide)
from .spaces import (VelocitySpace, PressureSpace, MultiplierSpace,
                     ContinuousPressureSpace, VelocityField, ScalarField)
from .forms import (SaddleSystem, assemble_a, assemble_b,
                    assemble_c, assemble_ghost_penalty, assemble_j,
                    assemble_rhs, pressure_mean_vector, pressure_kernel,
                    pressure_mass_inverse, build_saddle_system)
from .solver import (Solution, PenaltyFactor, SingularSystemError,
                     IterationError, solve_saddle, solve_direct,
                     condition_estimate)
from .postprocess import recover_pressure
from .harness import (ExactCase, StudyConfig, ResultRow, exact_example1,
                      exact_example2, build_geometry, assemble_level,
                      solve_level, run_convergence, run_interface_sweep,
                      compute_eoc)

__version__ = "0.1.0"

__all__ = [
    "MacroMesh", "AlfeldMesh", "ElementSets", "build_background_mesh",
    "alfeld_split", "classify_elements", "EmptyActiveDomainError",
    "LevelSet", "DiscreteLevelSet", "IsoDeformation", "CutQuadrature",
    "GeometryError", "interpolate_p1", "build_deformation",
    "build_quadratures", "cut_subdivide",
    "VelocitySpace", "PressureSpace", "MultiplierSpace",
    "ContinuousPressureSpace", "VelocityField", "ScalarField",
    "SaddleSystem", "assemble_a", "assemble_b", "assemble_c",
    "assemble_ghost_penalty", "assemble_j", "assemble_rhs",
    "pressure_mean_vector", "pressure_kernel", "pressure_mass_inverse",
    "build_saddle_system",
    "Solution", "PenaltyFactor", "SingularSystemError", "IterationError",
    "solve_saddle", "solve_direct", "condition_estimate",
    "recover_pressure",
    "ExactCase", "StudyConfig", "ResultRow", "exact_example1",
    "exact_example2", "build_geometry", "assemble_level", "solve_level",
    "run_convergence", "run_interface_sweep", "compute_eoc",
    "__version__",
]
