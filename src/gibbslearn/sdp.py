"""Certified solver for the stability program.

The program maximizes the regularization margin mu over coefficient vector y,
temperature T >= 0 and mu, subject to the linear matrix inequality

    T * L0 + sum_a y_a * A_a - mu * I  >=  0,      sum_a y_a w_a = -1,

with L0 the log of the modular matrix and A_a the kernel-direction moment
matrices.  The normalization hyperplane is eliminated by pivoting on the
largest |w_a|; the remaining problem is a standard-form semidefinite program
with a handful of scalar variables and one LMI block (plus a 1x1 block for
T >= 0), solved by an infeasible-start primal-dual interior-point method
with Nesterov-Todd scaling and adaptive centering.  Hermitian data is mapped
to the real symmetric embedding [[Re, -Im], [Im, Re]], which preserves
minimum eigenvalues; the dual variable is pulled back to a complex Hermitian
positive semidefinite certificate.

Every returned point is re-checked against the equivalent formulation
mu = lambda_min(T L0 + sum y A) via a direct Hermitian eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import DeltaNotPositive, NormalizationDegenerate

HERMITICITY_TOL = 1e-10
PIVOT_TOL = 1e-12


class SolverStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    NUMERICAL_TROUBLE = "NumericalTrouble"


@dataclass
class SdpOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.98
    fixed_temperature: Optional[float] = None  # variant: pin T, drop normalization


@dataclass
class KktResiduals:
    primal: float
    dual: float
    gap: float

    def worst(self) -> float:
        return max(self.primal, self.dual, self.gap)


@dataclass
class SdpProblem:
    l0: np.ndarray
    h_tilde_mats: np.ndarray  # (q, r, r) Hermitian
    h_tilde_expectations: np.ndarray  # (q,)
    options: SdpOptions = field(default_factory=SdpOptions)

    def __post_init__(self):
        self.l0 = np.asarray(self.l0, dtype=complex)
        self.h_tilde_mats = np.asarray(self.h_tilde_mats, dtype=complex)
        self.h_tilde_expectations = np.asarray(self.h_tilde_expectations, dtype=float)
        if self.h_tilde_mats.ndim != 3 or self.h_tilde_mats.shape[0] == 0:
            raise ValueError("need at least one kernel-direction matrix")
        r = self.l0.shape[0]
        if self.h_tilde_mats.shape[1:] != (r, r):
            raise ValueError("matrix dimensions disagree")
        for name, mat in [("l0", self.l0)] + [
            (f"h_tilde[{i}]", m) for i, m in enumerate(self.h_tilde_mats)
        ]:
            defect = np.abs(mat - mat.conj().T).max()
            scale = max(1.0, np.abs(mat).max())
            if defect > HERMITICITY_TOL * scale:
                raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")

    @property
    def r(self) -> int:
        return self.l0.shape[0]

    @property
    def q(self) -> int:
        return self.h_tilde_mats.shape[0]


@dataclass
class SdpSolution:
    y_star: np.ndarray
    t_star: float
    mu_star: float
    status: SolverStatus
    dual_certificate: Optional[np.ndarray]
    kkt_residuals: KktResiduals
    iterations: int
    diagnostics: dict


def log_psd(
    delta: np.ndarray, eig_floor: float = 1e-12, project: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Hermitian log of the modular matrix.

    Eigenvalues at or below the floor mean the matrix is off the positive
    cone: by default that raises ``DeltaNotPositive``, with ``project`` the
    problem is restricted to the orthocomplement of the offending eigenspace
    and the restriction basis is returned alongside the reduced log.  A
    modular matrix assembled from a self-adjoint string basis is congruent
    to the conjugated Gram matrix and clears the floor whenever the Gram
    check passes; there the loss of positivity under noise surfaces as
    ``GramDegenerate`` instead.
    """
    delta = np.asarray(delta, dtype=complex)
    evals, evecs = scipy.linalg.eigh(delta)
    bad = evals <= eig_floor
    if bad.any():
        if not project:
            raise DeltaNotPositive(evals[bad].tolist(), eig_floor)
        keep = ~bad
        basis = evecs[:, keep]
        return np.diag(np.log(evals[keep])).astype(complex), basis
    l0 = (evecs * np.log(evals)) @ evecs.conj().T
    return 0.5 * (l0 + l0.conj().T), None


# -- real symmetric embedding of Hermitian data ------------------------------


def _embed(mat: np.ndarray) -> np.ndarray:
    re, im = mat.real, mat.imag
    return np.block([[re, -im], [im, re]])


def _unembed_dual(block: np.ndarray) -> np.ndarray:
    """Complex Hermitian Zc with tr(embed(M) @ Y) = 2 Re tr(M @ Zc)."""
    d = block.shape[0] // 2
    y11, y12 = block[:d, :d], block[:d, d:]
    y21, y22 = block[d:, :d], block[d:, d:]
    return 0.5 * (y11 + y22) + 0.5j * (y21 - y12)


# -- interior-point core ------------------------------------------------------


def _max_step(mat: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with mat + alpha * direction staying positive semidefinite."""
    try:
        chol = scipy.linalg.cholesky(mat, lower=True)
    except scipy.linalg.LinAlgError:
        return 0.0
    tmp = scipy.linalg.solve_triangular(chol, direction, lower=True)
    scaled = scipy.linalg.solve_triangular(chol, tmp.T, lower=True).T
    lam = scipy.linalg.eigvalsh(0.5 * (scaled + scaled.T)).min()
    if lam >= -1e-14:
        return math.inf
    return -1.0 / lam


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, evecs = scipy.linalg.eigh(mat)
    evals = np.clip(evals, 1e-300, None)
    return (evecs * np.sqrt(evals)) @ evecs.T


def _min_eig(mat: np.ndarray) -> float:
    return float(scipy.linalg.eigvalsh(mat).min())


def _solve_standard(
    f_stack: np.ndarray,
    f0: np.ndarray,
    cvec: np.ndarray,
    feas_tol: float,
    gap_tol: float,
    max_iterations: int,
    step_fraction: float,
):
    """min c'x  s.t.  sum_k x_k F_k - F0 >= 0, for real symmetric blocks.

    Returns (x, Z, S, iterations, primal_res, dual_res, comp_gap, status_note).
    The dual variable Z solves max tr(F0 Z) s.t. tr(F_k Z) = c_k, Z >= 0.
    """
    m = f_stack.shape[0]
    dim = f0.shape[0]
    eye = np.eye(dim)

    x = np.zeros(m)
    norm_f0 = np.linalg.norm(f0)
    norm_fk = max(np.linalg.norm(fk) for fk in f_stack)
    norm_c = np.linalg.norm(cvec)
    s_mat = max(10.0, math.sqrt(dim), norm_f0, norm_fk) * eye
    z_mat = max(10.0, math.sqrt(dim), float(np.abs(cvec).max())) * eye

    flat_f = f_stack.reshape(m, -1)

    def residuals(xv, zv, sv):
        r_dual = f0 + sv - np.tensordot(xv, f_stack, axes=(0, 0))
        r_primal = cvec - flat_f @ zv.reshape(-1)
        comp = float(np.tensordot(zv, sv))
        pobj = float(cvec @ xv)
        dobj = float(np.tensordot(f0, zv))
        res_d = np.linalg.norm(r_dual) / (1.0 + norm_f0)
        res_p = np.linalg.norm(r_primal) / (1.0 + norm_c)
        rel_gap = comp / (1.0 + abs(pobj) + abs(dobj))
        return r_dual, r_primal, comp, pobj, res_p, res_d, rel_gap

    note = ""
    best = None  # (score, x, z, s, res_p, res_d, rel_gap)
    it = 0
    for it in range(1, max_iterations + 1):
        r_dual, r_primal, comp, pobj, res_p, res_d, rel_gap = residuals(x, z_mat, s_mat)
        score = max(res_p, res_d, rel_gap)
        if best is None or score < best[0]:
            best = (score, x.copy(), z_mat.copy(), s_mat.copy(), res_p, res_d, rel_gap)
        if res_d <= feas_tol and res_p <= feas_tol and rel_gap <= gap_tol:
            break
        if abs(pobj) > 1e12 * (1.0 + norm_f0 + norm_fk):
            note = "objective diverging; program appears unbounded"
            break

        # Nesterov-Todd scaling point: W S W = Z
        z_half = _psd_sqrt(z_mat)
        middle = z_half @ s_mat @ z_half
        mev, mvec = scipy.linalg.eigh(0.5 * (middle + middle.T))
        mev = np.clip(mev, 1e-300, None)
        mid_inv_half = (mvec / np.sqrt(mev)) @ mvec.T
        w_scale = z_half @ mid_inv_half @ z_half
        w_scale = 0.5 * (w_scale + w_scale.T)

        s_evals, s_evecs = scipy.linalg.eigh(s_mat)
        s_inv = (s_evecs / np.clip(s_evals, 1e-300, None)) @ s_evecs.T

        t_mats = f_stack @ w_scale  # (m, dim, dim)
        schur = t_mats.reshape(m, -1) @ t_mats.transpose(0, 2, 1).reshape(m, -1).T
        schur = 0.5 * (schur + schur.T)
        a_vec = flat_f @ s_inv.reshape(-1)
        h_vec = flat_f @ (w_scale @ r_dual @ w_scale).reshape(-1)

        try:
            schur_cho = scipy.linalg.cho_factor(
                schur + 1e-14 * np.trace(schur) / m * np.eye(m)
            )
        except scipy.linalg.LinAlgError:
            note = "Schur complement not positive definite"
            break

        def solve_schur(rhs):
            sol = scipy.linalg.cho_solve(schur_cho, rhs)
            # one refinement pass against late-stage ill-conditioning
            sol += scipy.linalg.cho_solve(schur_cho, rhs - schur @ sol)
            return sol

        def directions(nu):
            dx = solve_schur(nu * a_vec + h_vec - cvec)
            ds = np.tensordot(dx, f_stack, axes=(0, 0)) - r_dual
            ds = 0.5 * (ds + ds.T)
            dz = nu * s_inv - z_mat - w_scale @ ds @ w_scale
            dz = 0.5 * (dz + dz.T)
            return dx, ds, dz

        # predictor pass sets the adaptive centering weight
        dxa, dsa, dza = directions(0.0)
        alpha_s = min(1.0, step_fraction * _max_step(s_mat, dsa))
        alpha_z = min(1.0, step_fraction * _max_step(z_mat, dza))
        comp_aff = float(np.tensordot(z_mat + alpha_z * dza, s_mat + alpha_s * dsa))
        sigma = min(1.0, max(1e-10, (max(comp_aff, 0.0) / comp) ** 3))
        if max(res_p, res_d) > 10.0 * feas_tol:
            sigma = max(sigma, 1e-2)  # keep centering while still infeasible

        dx, ds, dz = directions(sigma * comp / dim)
        alpha_s = min(1.0, step_fraction * _max_step(s_mat, ds))
        alpha_z = min(1.0, step_fraction * _max_step(z_mat, dz))
        # fold back until both cone variables stay strictly positive
        shrink = 0
        while shrink < 30:
            s_new = s_mat + alpha_s * ds
            z_new = z_mat + alpha_z * dz
            if _min_eig(s_new) > 0 and _min_eig(z_new) > 0:
                break
            alpha_s *= 0.8
            alpha_z *= 0.8
            shrink += 1
        if alpha_s <= 1e-13 or alpha_z <= 1e-13 or shrink >= 30:
            note = "step length collapsed"
            break
        x = x + alpha_s * dx
        s_mat = s_new
        z_mat = z_new

    _, _, comp, pobj, res_p, res_d, rel_gap = residuals(x, z_mat, s_mat)
    if best is not None and max(res_p, res_d, rel_gap) > best[0]:
        _, x, z_mat, s_mat, res_p, res_d, rel_gap = best
    return x, z_mat, s_mat, it, res_p, res_d, rel_gap, note


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the stability program with certificates.

    The temperature enters as one more scalar variable bounded below by a
    1x1 slack block; a vanishing optimal temperature is legal output and is
    flagged in the diagnostics as physically degenerate.
    """
    opts = problem.options
    r = problem.r
    q = problem.q
    w = problem.h_tilde_expectations

    # internal magnitude normalization: dividing all LMI matrices by one
    # scale leaves (y, T) untouched and rescales mu
    scale = max(
        1.0,
        float(np.abs(problem.l0).max()),
        float(np.abs(problem.h_tilde_mats).max()),
    )
    l0 = problem.l0 / scale
    h_mats = problem.h_tilde_mats / scale

    fixed_t = opts.fixed_temperature
    if fixed_t is None:
        pivot = int(np.argmax(np.abs(w)))
        if abs(w[pivot]) <= PIVOT_TOL:
            raise NormalizationDegenerate(
                "all kernel directions have vanishing expectation; "
                "the normalization hyperplane is empty (fixed-temperature "
                "variant available via options)"
            )
        free = [a for a in range(q) if a != pivot]
        a_free = [h_mats[a] - (w[a] / w[pivot]) * h_mats[pivot] for a in free]
        const = -(1.0 / w[pivot]) * h_mats[pivot]  # additive LMI term from pivot
        m = len(free) + 2  # free y components, T, mu
        dim = 2 * r + 1
        f_stack = np.zeros((m, dim, dim))
        for i, mat in enumerate(a_free):
            f_stack[i, : 2 * r, : 2 * r] = _embed(mat)
        f_stack[len(free), : 2 * r, : 2 * r] = _embed(l0)
        f_stack[len(free), 2 * r, 2 * r] = 1.0  # slack block enforcing T >= 0
        f_stack[len(free) + 1, : 2 * r, : 2 * r] = -np.eye(2 * r)
        f0 = np.zeros((dim, dim))
        f0[: 2 * r, : 2 * r] = _embed(-const)
        cvec = np.zeros(m)
        cvec[-1] = -1.0  # maximize mu
    else:
        m = q + 1
        dim = 2 * r
        f_stack = np.zeros((m, dim, dim))
        for a in range(q):
            f_stack[a] = _embed(h_mats[a])
        f_stack[q] = -np.eye(dim)
        f0 = _embed(-fixed_t / scale * problem.l0)
        cvec = np.zeros(m)
        cvec[-1] = -1.0

    solve_feas = min(opts.feas_tol, 1e-9)
    solve_gap = min(opts.gap_tol, 1e-9)
    x, z_mat, s_mat, iterations, res_p, res_d, rel_gap, note = _solve_standard(
        f_stack, f0, cvec, solve_feas, solve_gap, opts.max_iterations, opts.step_fraction
    )

    if fixed_t is None:
        y = np.zeros(q)
        for i, a in enumerate(free):
            y[a] = x[i]
        y[pivot] = (-1.0 - sum(w[a] * y[a] for a in free)) / w[pivot]
        t_star = float(x[len(free)])
        mu_star = float(x[-1]) * scale
        z_block = z_mat[: 2 * r, : 2 * r]
    else:
        y = x[:q].copy()
        t_star = float(fixed_t)
        mu_star = float(x[-1]) * scale
        z_block = z_mat

    if -1e-9 < t_star < 0:
        t_star = 0.0
    certificate = _unembed_dual(z_block)
    cert_trace = float(np.trace(certificate).real)
    if cert_trace > 1e-300:
        certificate = certificate / cert_trace  # trace-1 convention

    # independent consistency check: mu must match the direct minimum
    # eigenvalue of the returned affine combination
    combo = t_star * problem.l0 + np.tensordot(y, problem.h_tilde_mats, axes=(0, 0))
    lam_min = float(scipy.linalg.eigvalsh(0.5 * (combo + combo.conj().T)).min())
    lambda_gap = abs(lam_min - mu_star)

    residuals = KktResiduals(primal=float(res_p), dual=float(res_d), gap=float(rel_gap))
    ok = (
        res_p <= opts.feas_tol
        and res_d <= opts.feas_tol
        and rel_gap <= opts.gap_tol
        and lambda_gap <= 1e4 * scale * max(opts.gap_tol, rel_gap)
    )
    if note.startswith("objective diverging"):
        status = SolverStatus.INFEASIBLE
    elif ok:
        status = SolverStatus.OPTIMAL
    else:
        status = SolverStatus.NUMERICAL_TROUBLE

    diagnostics = {
        "note": note,
        "lambda_min_check": lam_min,
        "lambda_min_gap": lambda_gap,
        "t_at_boundary": t_star <= 1e-7,
        "scale": scale,
        "pivot": None if fixed_t is not None else pivot,
    }
    return SdpSolution(
        y_star=y,
        t_star=t_star,
        mu_star=mu_star,
        status=status,
        dual_certificate=certificate,
        kkt_residuals=residuals,
        iterations=iterations,
        diagnostics=diagnostics,
    )


# -- independent residual audit ----------------------------------------------


@dataclass
class ResidualReport:
    lmi_min_eig: float
    normalization_residual: float
    temperature_nonneg: float
    lambda_min_minus_mu: float
    certificate_min_eig: float
    certificate_trace: float
    certificate_orthogonality: float
    certificate_l0_pairing: float
    complementary_slackness: float
    duality_gap: float

    def worst_violation(self, feas_tol: float = 1e-7) -> float:
        return max(
            max(0.0, -self.lmi_min_eig),
            self.normalization_residual,
            max(0.0, -self.temperature_nonneg),
            max(0.0, -self.certificate_min_eig),
            self.certificate_orthogonality,
            max(0.0, self.certificate_l0_pairing),
            abs(self.duality_gap),
        )


def check_solution(problem: SdpProblem, solution: SdpSolution) -> ResidualReport:
    """Recompute every optimality residual from scratch.

    Uses direct complex Hermitian eigensolves on the original (unembedded)
    data, a code path disjoint from the solver's scaled real embedding.
    """
    y = solution.y_star
    t = solution.t_star
    mu = solution.mu_star
    w = problem.h_tilde_expectations

    combo = t * problem.l0 + np.tensordot(y, problem.h_tilde_mats, axes=(0, 0))
    slack = combo - mu * np.eye(problem.r)
    slack = 0.5 * (slack + slack.conj().T)
    lmi_min = float(scipy.linalg.eigvalsh(slack).min())

    if problem.options.fixed_temperature is None:
        norm_res = abs(float(w @ y) + 1.0)
    else:
        norm_res = 0.0

    cert = solution.dual_certificate
    if cert is None:
        cert_min = cert_trace = ortho = l0_pair = comp = gap = float("nan")
    else:
        cert_h = 0.5 * (cert + cert.conj().T)
        cert_eigs = scipy.linalg.eigvalsh(cert_h)
        cert_min = float(cert_eigs.min())
        cert_trace = float(np.trace(cert_h).real)
        # stationarity in y: the pairings tr(H_a Z) must be proportional to
        # w_a (the normalization multiplier); project that component out
        pairings = np.array(
            [float(np.tensordot(cert_h.conj(), mat).real) for mat in problem.h_tilde_mats]
        )
        if problem.options.fixed_temperature is None:
            multiplier = -(w @ pairings) / float(w @ w)
            ortho = float(np.abs(pairings + multiplier * w).max())
        else:
            ortho = float(np.abs(pairings).max())
        l0_pair = float(np.tensordot(cert_h.conj(), problem.l0).real)
        comp = abs(float(np.tensordot(cert_h.conj(), slack).real))
        # at optimality mu equals the certificate's pairing with the combo
        gap = float(np.tensordot(cert_h.conj(), combo).real) - mu

    if problem.options.fixed_temperature is not None:
        l0_pair = 0.0  # temperature is pinned; no sign condition applies

    return ResidualReport(
        lmi_min_eig=lmi_min,
        normalization_residual=norm_res,
        temperature_nonneg=t,
        lambda_min_minus_mu=float(
            scipy.linalg.eigvalsh(0.5 * (combo + combo.conj().T)).min() - mu
        ),
        certificate_min_eig=cert_min,
        certificate_trace=cert_trace,
        certificate_orthogonality=ortho,
        certificate_l0_pairing=l0_pair,
        complementary_slackness=comp,
        duality_gap=gap,
    )
