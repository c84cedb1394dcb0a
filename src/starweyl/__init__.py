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
    BoundaryLimit,
    HerglotzFunction,
    HerglotzRep,
    atom_weight,
    atomic_rational_parts,
    boundary_imag_limit,
    boundary_limit,
    cauchy_transform,
    classical_parts,
    cos_sin,
    geometric_schedule,
    mobius,
    poly_gcd_degree,
    ratio_limit,
    richardson,
    solve_level,
    stieltjes_invert,
)
from .measure import (
    DerivativeValue,
    Piece,
    Poly,
    ScalarMeasure,
    as_fraction,
    overlap_count,
    sum_measures,
)
from .pasting import (
    OmegaMatrix,
    exact_rank,
    PastedSystem,
    generalized_multiplicity,
    interface_matrix,
    matrix_weyl,
    md_matrix,
    multiplicity_at,
    omega_at,
    predicted_rank_singular,
    pure_relation_weyl,
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
    edge_to_herglotz,
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
    "BoundaryLimit",
    "ConvergenceError",
    "DerivativeValue",
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
    "boundary_imag_limit",
    "boundary_limit",
    "build_example_k74",
    "cauchy_transform",
    "classical_parts",
    "classify_spectrum",
    "cos_sin",
    "dirichlet_eigenvalues",
    "exact_rank",
    "edge_to_herglotz",
    "fd_oracle",
    "find_point_spectrum",
    "generalized_multiplicity",
    "geometric_schedule",
    "interface_matrix",
    "matrix_weyl",
    "md_matrix",
    "mobius",
    "multiplicity_at",
    "omega_at",
    "overlap_count",
    "poly_gcd_degree",
    "predicted_rank_singular",
    "pure_relation_weyl",
    "rank_md",
    "rank_one_limit_matrix",
    "ratio_limit",
    "richardson",
    "solve_edge",
    "solve_level",
    "stieltjes_invert",
    "sum_measures",
    "symplectic_form",
    "trace_weyl",
    "verify_kac",
    "weyl_m",
]
