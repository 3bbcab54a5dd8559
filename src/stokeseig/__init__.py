"""Mixed stress-velocity finite elements for the 2D Stokes eigenvalue problem."""

from .adapt import AdaptReport, afem_loop, mark
from .assembly import Forms, Pencil, assemble_forms, build_pencil, skew_free_part
from .eigsolve import EigConfig, SpectralSolution, eigen_residuals, solve_eig
from .estimator import LocalIndicators, compute_indicators, effectivity
from .fields import (DiscreteField, pressure_from_stress, theta_postprocess,
                     vorticity_from_stress)
from .mesh import (Mesh, build_circle_mesh, build_lshape_mesh,
                   build_square_mesh, patches, read_mesh, refine, write_mesh)
from .quadrature import QuadratureRule, quadrature
from .refbasis import ReferenceBasis, ned_basis, pk_basis
from .sparselin import Factorization, SparseMatrix, factorize
from .spaces import DofMap, SpaceDescriptor, interpolate_ned, l2_project_velocity
from .study import ConvergenceReport, ExperimentConfig, extrapolate, fit_order, run_adapt, run_study

__version__ = "0.1.0"
