"""sublap: a numerical laboratory for Hormander vector fields.

Assembles the sub-Laplacian H = sum_j X_j* X_j on gridded domains,
computes principal eigenvalues (including weighted and regularized
variants), solves logistic / Yamabe-type semilinear problems by monotone
sub/super-solution iteration, estimates the Carnot-Caratheodory metric,
and runs desk-scale verification suites for the underlying comparison
and existence theorems.
"""

from .fields import (
    Polynomial,
    VectorFieldFamily,
    euclidean,
    grushin,
    heisenberg,
    hormander_rank,
    lie_bracket,
    resolve_family,
)
from .mesh import GridDomain, GridField, build_grid, mask_domain
from .operators import (
    SparseOperator,
    assemble_diagonal,
    assemble_first_order,
    assemble_stiffness,
    mass_matrix,
)
from .eigen import (
    ConvergenceError,
    EigenResult,
    epsilon_path,
    principal_eigenpair,
    weighted_principal,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "VectorFieldFamily",
    "euclidean",
    "heisenberg",
    "grushin",
    "lie_bracket",
    "hormander_rank",
    "resolve_family",
    "GridDomain",
    "GridField",
    "build_grid",
    "mask_domain",
    "SparseOperator",
    "assemble_first_order",
    "assemble_stiffness",
    "assemble_diagonal",
    "mass_matrix",
    "EigenResult",
    "ConvergenceError",
    "principal_eigenpair",
    "weighted_principal",
    "epsilon_path",
]
