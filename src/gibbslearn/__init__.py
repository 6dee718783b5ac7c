"""Hamiltonian and temperature reconstruction from Gibbs-state expectations.

The pipeline takes a table of Pauli expectation values, builds the moment
matrices of the state on a span of perturbing operators, extracts the
quasi-symmetry kernel, and solves a semidefinite stability program whose
margin certifies whether the state can be thermal for the candidate terms.
A brute-force GNS oracle provides independent ground truth at small sizes.
"""

from .errors import (
    BadTable,
    ConfigError,
    DeltaNotPositive,
    DenseLimitExceeded,
    DimensionMismatch,
    GibbsLearnError,
    GramDegenerate,
    IncompleteData,
    NormalizationDegenerate,
    SolverFailure,
)
from .learn import (
    ReconstructOptions,
    ReconstructionResult,
    RecoveryReport,
    Verdict,
    evaluate_recovery,
    reconstruct,
    recovery_angle,
    temperature_ratio,
)
from .moments import (
    MomentAssembler,
    MomentSet,
    OrthoBasis,
    build_w,
    epsilon_w,
    kernel_basis,
    orthonormalize,
)
from .pauli import (
    PauliOperator,
    PauliString,
    commutator,
    dense_matrix,
    enumerate_geometric_k_local,
    multiply,
)
from .sdp import (
    KktResiduals,
    SdpOptions,
    SdpProblem,
    SdpSolution,
    SolverStatus,
    check_solution,
    log_psd,
    solve,
)
from .states import (
    ExpectationTable,
    add_noise,
    build_table,
    expectation,
    gibbs_density,
    required_strings,
)

__version__ = "0.1.0"
