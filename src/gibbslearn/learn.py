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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional

import numpy as np
import scipy.linalg

from . import sdp as sdp_mod
from .errors import NormalizationDegenerate, SolverFailure
from .moments import MomentAssembler
from .pauli import PauliOperator
from .sdp import SdpOptions, SdpProblem, SolverStatus
from .states import ExpectationTable

NORMALIZATION_TOL = 1e-12


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
    fixed_temperature_fallback: Optional[float] = None  # used when normalization degenerates
    sdp: SdpOptions = field(default_factory=SdpOptions)


@dataclass
class Diagnostics:
    r: int
    s: int
    q: int
    epsilon_w: float
    gram_eigenvalues: np.ndarray
    w_spectrum: np.ndarray
    delta_min_eig: float
    projected_dim: Optional[int] = None
    solver_status: Optional[str] = None
    solver_iterations: Optional[int] = None
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
    term_labels: Optional[List[str]] = None

    def save(self, path):
        d = self.diagnostics
        with open(path, "w") as handle:
            handle.write(f"verdict = {self.verdict.value}\n")
            handle.write(f"t_star = {'' if self.t_star is None else repr(self.t_star)}\n")
            handle.write(f"mu_star = {'' if self.mu_star is None else repr(self.mu_star)}\n")
            handle.write(f"r = {d.r}\n")
            handle.write(f"s = {d.s}\n")
            handle.write(f"q = {d.q}\n")
            handle.write(f"epsilon_w = {d.epsilon_w!r}\n")
            handle.write(f"delta_min_eig = {d.delta_min_eig!r}\n")
            handle.write(f"gram_min_eig = {float(d.gram_eigenvalues.min())!r}\n")
            handle.write(f"gram_max_eig = {float(d.gram_eigenvalues.max())!r}\n")
            for name in ("gram_eigenvalues", "w_spectrum"):
                values = " ".join(repr(float(v)) for v in getattr(d, name))
                handle.write(f"{name} = {values}\n")
            handle.write(f"projected_dim = {'' if d.projected_dim is None else d.projected_dim}\n")
            handle.write(f"solver_status = {d.solver_status or ''}\n")
            handle.write(f"solver_iterations = {d.solver_iterations or 0}\n")
            for name in ("residual_primal", "residual_dual", "residual_gap"):
                value = getattr(d, name)
                handle.write(f"{name} = {'' if value is None else repr(value)}\n")
            if self.y_star is not None:
                labels = self.term_labels or [str(i) for i in range(len(self.y_star))]
                for label, value in zip(labels, self.y_star):
                    handle.write(f"coeff.{label} = {float(value)!r}\n")


@dataclass
class RecoveryReport:
    theta: float
    temperature_ratio: float
    scale_factor: float


def reconstruct(
    table: ExpectationTable,
    assembler: MomentAssembler,
    opts: Optional[ReconstructOptions] = None,
) -> ReconstructionResult:
    """Full pipeline: Gram, orthonormalization, moments, kernel, optimization.

    The assembler holds the perturbing strings and the candidate terms
    (``assembler.b``, ``assembler.h_terms``); one serves every table.

    Degenerate inputs raise (GramDegenerate, NormalizationDegenerate,
    SolverFailure); an empty quasi-symmetry kernel and a certified negative
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
        gram_eigenvalues=ortho.gram_eigenvalues,
        w_spectrum=moments.w_spectrum,
        delta_min_eig=float(scipy.linalg.eigvalsh(moments.delta).min()),
    )
    labels = [_term_label(op) for op in assembler.h_terms]

    if moments.q == 0:
        return ReconstructionResult(Verdict.NOT_STATIONARY, None, None, None, diag, labels)

    l0, basis = sdp_mod.log_psd(
        moments.delta, eig_floor=opts.delta_floor, project=opts.project_delta
    )
    h_tilde = moments.h_tilde_mats
    if basis is not None:
        h_tilde = np.einsum(
            "ki,qkl,lj->qij", basis.conj(), h_tilde, basis, optimize=True
        )
        diag.projected_dim = l0.shape[0]

    fixed_temperature = opts.sdp.fixed_temperature
    w_exps = moments.h_tilde_expectations
    if np.abs(w_exps).max() <= NORMALIZATION_TOL:
        if opts.fixed_temperature_fallback is None:
            raise NormalizationDegenerate(
                "every kernel direction has vanishing expectation value; "
                "set fixed_temperature_fallback to use the unnormalized variant"
            )
        fixed_temperature = opts.fixed_temperature_fallback

    sdp_opts = replace(opts.sdp, fixed_temperature=fixed_temperature)
    problem = SdpProblem(l0, h_tilde, w_exps, sdp_opts)
    solution = sdp_mod.solve(problem)
    diag.solver_status = solution.status.value
    diag.solver_iterations = solution.iterations
    diag.residual_primal = solution.kkt_residuals.primal
    diag.residual_dual = solution.kkt_residuals.dual
    diag.residual_gap = solution.kkt_residuals.gap

    if solution.status is SolverStatus.NUMERICAL_TROUBLE:
        raise SolverFailure(
            f"optimizer did not certify an optimum: {solution.diagnostics.get('note', '')} "
            f"(residuals {solution.kkt_residuals})"
        )
    if solution.status is SolverStatus.INFEASIBLE:
        raise SolverFailure("stability program reported as unbounded/infeasible")

    y_orig = moments.kernel_coeffs.T @ solution.y_star
    l0_norm = float(np.abs(scipy.linalg.eigvalsh(l0)).max()) if l0.size else 0.0
    certificate_tol = opts.certificate_tol_rel * max(1.0, l0_norm)
    verdict = Verdict.NOT_GIBBS if solution.mu_star < -certificate_tol else Verdict.CANDIDATE
    return ReconstructionResult(
        verdict=verdict,
        y_star=y_orig,
        t_star=solution.t_star,
        mu_star=solution.mu_star,
        diagnostics=diag,
        term_labels=labels,
    )


def _term_label(op: PauliOperator) -> str:
    if len(op.terms) == 1:
        (string, coeff) = next(iter(op.terms.items()))
        if coeff == 1.0:
            return string.to_text()
    return op.to_text()


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
    ratio, c = temperature_ratio(result.y_star, result.t_star, z_true, t_true)
    return RecoveryReport(theta=theta, temperature_ratio=ratio, scale_factor=c)
