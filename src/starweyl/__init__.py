"""Spectral analysis of boundary-pasted Herglotz systems on star graphs.

The package moves between three layers:

* scalar data: nonnegative measures (`ScalarMeasure`) and the analytic
  functions they represent (`HerglotzRep`, plus black-box callables);
* one-dimensional operators: half-line edges with polynomial potentials
  (`Edge`) and their boundary response `weyl_m`;
* pasted systems: several scalar ingredients joined at one interface
  (`PastedSystem`), their matrix response, local spectral weight, and
  classification reports.
"""

from .errors import (
    ConvergenceError,
    InternalInvariantError,
    PureRelationError,
    SchemaError,
)
from .herglotz import (
    HerglotzFunction,
    HerglotzRep,
    atom_weight,
    atomic_rational_parts,
    cauchy_transform,
    cos_sin,
    geometric_schedule,
    poly_gcd_degree,
    richardson,
    solve_level,
)
from .measure import (
    Piece,
    Poly,
    ScalarMeasure,
    as_fraction,
    sum_measures,
)
from .pasting import (
    OmegaMatrix,
    PastedSystem,
    exact_rank,
    interface_matrix,
    matrix_weyl,
    md_matrix,
    multiplicity_at,
    omega_at,
    rank_md,
    rank_one_limit_matrix,
    symplectic_form,
    trace_weyl,
)
from .schrodinger import (
    Edge,
    PotentialPiece,
    Solution,
    dirichlet_eigenvalues,
    solve_edge,
    weyl_m,
)
from .spectra import (
    AcRegion,
    Eigenvalue,
    FdOracleResult,
    SingularItem,
    SpectralReport,
    aronszajn_donoghue_check,
    build_example_k74,
    classify_spectrum,
    fd_oracle,
    find_point_spectrum,
    verify_kac,
)

__version__ = "0.1.0"

__all__ = [
    "AcRegion",
    "ConvergenceError",
    "Edge",
    "Eigenvalue",
    "FdOracleResult",
    "HerglotzFunction",
    "HerglotzRep",
    "InternalInvariantError",
    "OmegaMatrix",
    "PastedSystem",
    "Piece",
    "Poly",
    "PotentialPiece",
    "PureRelationError",
    "ScalarMeasure",
    "SchemaError",
    "SingularItem",
    "Solution",
    "SpectralReport",
    "aronszajn_donoghue_check",
    "as_fraction",
    "atom_weight",
    "atomic_rational_parts",
    "build_example_k74",
    "cauchy_transform",
    "classify_spectrum",
    "cos_sin",
    "dirichlet_eigenvalues",
    "exact_rank",
    "fd_oracle",
    "find_point_spectrum",
    "geometric_schedule",
    "interface_matrix",
    "matrix_weyl",
    "md_matrix",
    "multiplicity_at",
    "omega_at",
    "poly_gcd_degree",
    "rank_md",
    "rank_one_limit_matrix",
    "richardson",
    "solve_edge",
    "solve_level",
    "sum_measures",
    "symplectic_form",
    "trace_weyl",
    "verify_kac",
    "weyl_m",
]
