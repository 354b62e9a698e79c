"""Exact jet-space calculus for polynomial evolution PDEs.

Symmetries, conservation laws, recursion-operator shadows, and Hamiltonian
structures, computed with exact rational arithmetic.
"""

from .dalg import DiffPoly, ExponentOverflow, ParseError, Rational, UnknownIdentifier, VarId
from .jetspace import (
    EvolutionSystem,
    GeneralSystem,
    JetContext,
    NotInternal,
    RegimeMismatch,
    prolong,
    total_derivative,
    total_derivative_iterated,
)
from .cdiff import (
    CartanShadow,
    CDiffOp,
    DimensionMismatch,
    HorForm,
    cartan_differential,
    contract,
    evolutionary,
    flow_linearization,
    horizontal_differential,
    jacobi_bracket,
    linearization,
    shadow_residual,
    wedge,
)
from .variational import (
    ConservedCurrent,
    Density,
    NotConserved,
    NotExactDerivative,
    NotGeneratingFunction,
    NotVariational,
    VerificationFailed,
    current_from_gf,
    dx_inverse,
    euler,
    generating_function,
    gf_residual,
    homotopy_lagrangian,
    is_divergence,
    is_generating_function,
    self_adjoint_test,
    verify_conserved_current,
)
from .detsolve import (
    Ansatz,
    LinearSystem,
    NonlinearInUnknowns,
    SolutionBasis,
    generating_functions,
    match_coefficients,
    nullspace,
    shadows,
    span_contains,
    symmetries,
)
from .hamrec import (
    BracketResult,
    Covering,
    NonlocalObstruction,
    NotFlat,
    PreconditionFailed,
    apply_shadow,
    dx_inverse_extended,
    gf_to_symmetry,
    hamiltonian_flow,
    is_skew_adjoint,
    jacobi_check,
    jacobi_criterion_density,
    make_covering,
    poisson_bracket,
    shadow_iterates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
