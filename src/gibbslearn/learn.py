"""End-to-end reconstruction pipeline and recovery metrics.

From an expectation table and a moment assembler, which holds the two
operator bases, to a terminal verdict: either no candidate direction is
stationary, or the state is certified not to be a Gibbs state of anything
in the candidate span, or a candidate (Hamiltonian coefficients,
temperature) pair is returned along with the optimization margin and full
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import List, Optional

import numpy as np
import scipy.linalg

from . import pauli
from . import sdp as sdp_mod
from .errors import SolverFailure
from .moments import MomentAssembler, MomentSet
from .pauli import PauliOperator
from .sdp import SdpOptions, SdpProblem, SdpSolution, SolverStatus
from .states import ExpectationTable

class Verdict(str, Enum):
    NOT_STATIONARY = "NotStationary"
    NOT_GIBBS = "NotGibbs"
    CANDIDATE = "Candidate"


@dataclass
class ReconstructOptions:
    gram_floor: Optional[float] = None  # default: relative floor inside moments
    epsilon_w: Optional[float] = None  # default: noise formula
    delta_floor: float = 1e-12
    project_delta: bool = False  # experimental: restrict instead of failing
    certificate_tol_rel: float = 1e-6  # NotGibbs threshold, relative to |L0|
    sdp: SdpOptions = field(default_factory=SdpOptions)


@dataclass
class Diagnostics:
    """The run's values; ``ReconstructionResult.save`` writes them in this order."""

    r: int
    s: int
    q: int
    epsilon_w: float
    delta_min_eig: float
    gram_min_eig: float
    gram_max_eig: float
    gram_eigenvalues: np.ndarray
    w_spectrum: np.ndarray
    projected_dim: Optional[int] = None
    solver_status: Optional[str] = None
    solver_iterations: int = 0
    residual_primal: Optional[float] = None
    residual_dual: Optional[float] = None
    residual_gap: Optional[float] = None


@dataclass
class ReconstructionResult:
    verdict: Verdict
    y_star: Optional[np.ndarray]  # coefficients in the original term basis
    t_star: Optional[float]
    mu_star: Optional[float]
    diagnostics: Diagnostics
    terms: List[PauliOperator]  # the candidate terms y_star is written in

    def save(self, path):
        """One ``key = value`` line per field, then one ``coeff.<term>`` line per term."""
        lines = [("verdict", self.verdict.value), ("t_star", self.t_star)]
        lines += [("mu_star", self.mu_star)]
        lines += [(f.name, getattr(self.diagnostics, f.name)) for f in fields(Diagnostics)]
        if self.y_star is not None:
            lines += [(f"coeff.{label}", v) for label, v in zip(_term_labels(self.terms), self.y_star)]
        with open(path, "w") as handle:
            handle.writelines(f"{key} = {_record_value(value)}\n" for key, value in lines)


def _record_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return " ".join(repr(float(v)) for v in value)
    return str(value)


@dataclass
class RecoveryReport:
    theta: float
    temperature_ratio: float


def reconstruct(
    table: ExpectationTable,
    assembler: MomentAssembler,
    opts: Optional[ReconstructOptions] = None,
) -> ReconstructionResult:
    """Full pipeline: Gram, orthonormalization, moments, kernel, optimization.

    The assembler holds the perturbing strings and the candidate terms
    (``assembler.b``, ``assembler.h_terms``); one serves every table.

    Degenerate inputs raise (GramDegenerate, NormalizationDegenerate unless
    ``opts.sdp`` fixes the temperature, SolverFailure); an empty quasi-symmetry kernel and a certified negative
    margin are verdicts, not errors.  Noise that breaks modular positivity
    surfaces as GramDegenerate: on a self-adjoint string basis the modular
    matrix is a *-congruence of the conjugated Gram matrix, so its smallest
    eigenvalue is at least lambda_min(G) / lambda_max(G), and with the
    default floors DeltaNotPositive cannot occur here.
    """
    opts = opts or ReconstructOptions()
    ortho, moments = assembler.moment_set(
        table, gram_floor=opts.gram_floor, epsilon_w_value=opts.epsilon_w
    )
    diag = Diagnostics(
        r=ortho.size,
        s=len(assembler.h_terms),
        q=moments.q,
        epsilon_w=moments.epsilon_w,
        delta_min_eig=float(scipy.linalg.eigvalsh(moments.delta).min()),
        gram_min_eig=float(ortho.gram_eigenvalues.min()),
        gram_max_eig=float(ortho.gram_eigenvalues.max()),
        gram_eigenvalues=ortho.gram_eigenvalues,
        w_spectrum=moments.w_spectrum,
    )
    terms = assembler.h_terms
    if moments.q == 0:
        return ReconstructionResult(Verdict.NOT_STATIONARY, None, None, None, diag, terms)

    problem = stability_problem(moments, opts)
    if problem.r < diag.r:
        diag.projected_dim = problem.r
    solution = sdp_mod.solve(problem)
    diag.solver_status = solution.status.value
    diag.solver_iterations = solution.iterations
    diag.residual_primal = solution.kkt_residuals.primal
    diag.residual_dual = solution.kkt_residuals.dual
    diag.residual_gap = solution.kkt_residuals.gap
    return ReconstructionResult(
        verdict=verdict(solution, problem.l0, opts),
        y_star=moments.kernel_coeffs.T @ solution.y_star,
        t_star=solution.t_star,
        mu_star=solution.mu_star,
        diagnostics=diag,
        terms=terms,
    )


def stability_problem(moments: MomentSet, opts: ReconstructOptions) -> SdpProblem:
    """The stability program on the kernel directions, with L0 = log(Delta).

    With ``opts.project_delta`` a modular matrix below ``opts.delta_floor``
    restricts the program to its eigenvectors above the floor.
    """
    l0, basis = sdp_mod.log_psd(
        moments.delta, eig_floor=opts.delta_floor, project=opts.project_delta
    )
    h_tilde = moments.h_tilde_mats
    if basis is not None:
        h_tilde = np.einsum("ki,qkl,lj->qij", basis.conj(), h_tilde, basis, optimize=True)
    return SdpProblem(l0, h_tilde, moments.h_tilde_expectations, opts.sdp)


def verdict(solution: SdpSolution, l0: np.ndarray, opts: ReconstructOptions) -> Verdict:
    """NotGibbs when the margin is below -certificate_tol_rel * max(1, |L0|).

    A solution the solver did not certify optimal raises ``SolverFailure``.
    """
    if solution.status is SolverStatus.NUMERICAL_TROUBLE:
        raise SolverFailure(
            f"optimizer did not certify an optimum: {solution.note} "
            f"(residuals {solution.kkt_residuals})"
        )
    if solution.status is SolverStatus.INFEASIBLE:
        raise SolverFailure("stability program reported as unbounded/infeasible")
    l0_norm = float(np.abs(scipy.linalg.eigvalsh(l0)).max()) if l0.size else 0.0
    certificate_tol = opts.certificate_tol_rel * max(1.0, l0_norm)
    return Verdict.NOT_GIBBS if solution.mu_star < -certificate_tol else Verdict.CANDIDATE


def _term_labels(ops: List[PauliOperator]) -> List[str]:
    """A single string with coefficient 1 is written as its string, anything else as ``op.to_text()``.

    The single strings are written in one ``pauli.texts`` call.
    """
    single = [len(op.terms) == 1 and next(iter(op.terms.values())) == 1.0 for op in ops]
    strings = [next(iter(op.terms)) for op, one in zip(ops, single) if one]
    texts = iter(pauli.texts(*pauli.masks(strings)))
    return [next(texts) if one else op.to_text() for op, one in zip(ops, single)]


def recovery_angle(y: np.ndarray, z: np.ndarray) -> float:
    """Angle between coefficient vectors, insensitive to scale and sign.

    Computed as atan2 of the parts of y across and along z, which stays
    accurate near 0 where acos of the cosine loses half the digits.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape:
        raise ValueError("coefficient vectors have different lengths")
    ny, nz = np.linalg.norm(y), np.linalg.norm(z)
    if ny == 0 or nz == 0:
        raise ValueError("recovery angle undefined for a zero vector")
    z_hat = z / nz
    along = float(y @ z_hat)
    across = float(np.linalg.norm(y - along * z_hat))
    return math.atan2(across, abs(along))


def temperature_ratio(
    y_star: np.ndarray, t_star: float, z_true: np.ndarray, t_true: float
) -> tuple:
    """Gauge-corrected temperature ratio and the least-squares scale.

    The optimizer's normalization fixes an arbitrary overall scale c between
    the recovered and true coefficients; dividing the recovered temperature
    by c undoes it, so perfect recovery gives ratio 1.  A vanishing scale
    (recovered vector nearly orthogonal to the truth) makes the ratio
    unreliable and returns nan.
    """
    y_star = np.asarray(y_star, dtype=float)
    z_true = np.asarray(z_true, dtype=float)
    denom = float(z_true @ z_true)
    if denom == 0:
        raise ValueError("true coefficient vector is zero")
    c = float(y_star @ z_true) / denom
    if abs(c) <= 1e-12 * max(1.0, float(np.abs(y_star).max())):
        return math.nan, c
    return (t_star / c) / t_true, c


def evaluate_recovery(
    result: ReconstructionResult, z_true: np.ndarray, t_true: float
) -> RecoveryReport:
    if result.y_star is None or result.t_star is None:
        raise ValueError(f"no candidate to evaluate (verdict {result.verdict.value})")
    theta = recovery_angle(result.y_star, z_true)
    ratio, _ = temperature_ratio(result.y_star, result.t_star, z_true, t_true)
    return RecoveryReport(theta=theta, temperature_ratio=ratio)
