"""Generation tests and simulation for 1-D port-Hamiltonian boundary systems.

Decides, from finite matrix data, whether the operator of

    d/dt x = (P1 d/dz + P0)(H(z) x),
    wb_tilde @ [(Hx)(1); (Hx)(0)] = 0

generates a contraction semigroup, a unitary group, or a C0-semigroup,
and corroborates the verdict with an upwind characteristics simulator
that monitors energy and L^p norms.
"""

from .classifier import (
    BoundaryClosure,
    DiagonalizedField,
    EigenSplit,
    Verdict,
    boundary_closure_matrix,
    check_contraction,
    check_unitary,
    classify,
    compute_wb,
    diagonalize_field,
    direct_sum_check,
    eigensplit,
    rank_of,
)
from .errors import (
    ContinuityError,
    DomainError,
    IllPosedError,
    InvariantError,
    PHSError,
    PreconditionError,
    SchemaError,
    ShapeError,
    SpecError,
    StabilityError,
    ValidationError,
)
from .model import (
    CoefficientField,
    PHSystem,
    hermitian_part,
    load_system,
    make_system,
    matrix_to_pairs,
    validate_system,
)
from .oracle import (
    agreement_campaign,
    boundary_form_on_kernel,
    check_contraction_via_c,
    kernel_basis,
    random_system,
)
from .simulator import (
    SimConfig,
    SimState,
    energy,
    lp_norm,
    run,
    setup,
    step,
    write_field_csv,
    write_history_csv,
)

__version__ = "0.1.0"
