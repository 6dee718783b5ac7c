"""Certified solver for the stability program.

The program maximizes the regularization margin mu over coefficient vector y,
temperature T >= 0 and mu, subject to the linear matrix inequality

    T * L0 + sum_a y_a * A_a - mu * I  >=  0,      sum_a y_a w_a = -1,

with L0 the log of the modular matrix and A_a the kernel-direction moment
matrices.  The normalization hyperplane is eliminated by pivoting on the
largest |w_a|; the remaining problem is a standard-form semidefinite program
with a handful of scalar variables, one complex Hermitian r x r LMI block
and one scalar cone for T >= 0.  It is solved by an infeasible-start
primal-dual interior-point method with adaptive centering and
Nesterov-Todd scaling in the Cholesky form of Todd, Toh and Tutuncu (1998):
the scaling comes from the Cholesky factors of the two cone variables and
one SVD of their product, step lengths from one eigenvalue computation per
cone in the scaled space, and positivity of a trial step from a Cholesky
attempt whose factors are kept for the next iteration.

The LMI block carries the inner product <A, B> = 2 Re tr(A^H B) and counts
as 2r dimensions in the barrier parameter.  That is the trace product of
the real symmetric embedding [[Re, -Im], [Im, Re]], so every iterate is the
exact image of the same method run on the (2r+1)-dimensional real problem,
at the cost of r x r complex factorizations.  The dual variable of the LMI
block, normalized to unit trace, is the complex Hermitian positive
semidefinite certificate.

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
# acceptance tolerances on the relative KKT residuals; the iteration itself
# runs to the tighter SOLVE_TOL so that a returned point clears them
FEAS_TOL = 1e-8
GAP_TOL = 1e-8
SOLVE_TOL = 1e-9
MAX_ITERATIONS = 200
STEP_FRACTION = 0.98  # share of the step to the cone boundary taken


class SolverStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    NUMERICAL_TROUBLE = "NumericalTrouble"


@dataclass
class SdpOptions:
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


# -- interior-point core ------------------------------------------------------


def _cholesky(mat: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor, or None when ``mat`` is not positive definite."""
    try:
        return scipy.linalg.cholesky(mat, lower=True)
    except scipy.linalg.LinAlgError:
        return None


def _hermitian(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def _step_to_boundary(lam: float) -> float:
    """Largest alpha with I + alpha * M >= 0, given lambda_min(M)."""
    return math.inf if lam >= -1e-14 else -1.0 / lam


def _solve_standard(
    f_stack: np.ndarray,
    f0: np.ndarray,
    g_stack: np.ndarray,
    cvec: np.ndarray,
):
    """min c'x  s.t.  S = sum_k x_k F_k - F0 >= 0  and  s = sum_k x_k g_k >= 0.

    The F blocks are complex Hermitian r x r, the g blocks a (possibly
    empty) vector of scalar cones.  Returns (x, Z, iterations, primal_res,
    dual_res, comp_gap, status_note), where the dual matrix Z solves
    max <F0, Z>  s.t.  <F_k, Z> + g_k'z = c_k,  Z >= 0, z >= 0.
    """
    m, r = f_stack.shape[:2]
    p = g_stack.shape[1]
    eye = np.eye(r)
    # barrier parameter of the real embedding: a Hermitian r x r block
    # counts as 2r real dimensions, each scalar cone as one
    nu_dim = 2 * r + p
    flat_f_conj = f_stack.conj().reshape(m, -1)

    def pair(a, a_diag, b, b_diag):
        """<A, B> = 2 Re tr(A^H B) + a'b, the embedding's trace product."""
        return 2.0 * float(np.vdot(a, b).real) + float(a_diag @ b_diag)

    def norm(mat, diag):
        return math.sqrt(pair(mat, diag, mat, diag))

    x = np.zeros(m)
    norm_f0 = norm(f0, np.zeros(p))
    norm_fk = max(norm(fk, gk) for fk, gk in zip(f_stack, g_stack))
    norm_c = np.linalg.norm(cvec)
    s0 = max(10.0, math.sqrt(nu_dim), norm_f0, norm_fk)
    z0 = max(10.0, math.sqrt(nu_dim), float(np.abs(cvec).max()))
    # the start is a multiple of the identity, so its factors are known
    s_mat, s_diag, s_chol = s0 * eye + 0j, np.full(p, s0), math.sqrt(s0) * eye
    z_mat, z_diag, z_chol = z0 * eye + 0j, np.full(p, z0), math.sqrt(z0) * eye

    def residuals(xv, zv, z_d, sv, s_d):
        r_dual = f0 + sv - np.tensordot(xv, f_stack, axes=(0, 0))
        r_dual_d = s_d - xv @ g_stack
        r_primal = cvec - 2.0 * (flat_f_conj @ zv.reshape(-1)).real - g_stack @ z_d
        comp = pair(zv, z_d, sv, s_d)
        pobj = float(cvec @ xv)
        dobj = 2.0 * float(np.vdot(f0, zv).real)
        res_d = norm(r_dual, r_dual_d) / (1.0 + norm_f0)
        res_p = np.linalg.norm(r_primal) / (1.0 + norm_c)
        rel_gap = comp / (1.0 + abs(pobj) + abs(dobj))
        return r_dual, r_dual_d, comp, pobj, res_p, res_d, rel_gap

    note = ""
    best = None  # (score, x, z, res_p, res_d, rel_gap)
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        r_dual, r_dual_d, comp, pobj, res_p, res_d, rel_gap = residuals(
            x, z_mat, z_diag, s_mat, s_diag
        )
        score = max(res_p, res_d, rel_gap)
        if best is None or score < best[0]:
            best = (score, x.copy(), z_mat.copy(), res_p, res_d, rel_gap)
        if res_d <= SOLVE_TOL and res_p <= SOLVE_TOL and rel_gap <= SOLVE_TOL:
            break
        if abs(pobj) > 1e12 * (1.0 + norm_f0 + norm_fk):
            note = "objective diverging; program appears unbounded"
            break

        # Nesterov-Todd scaling from the Cholesky factors (Todd-Toh-Tutuncu):
        # with Lz^H Ls = U D V^H and R = Lz U D^{-1/2}, R^H S R = R^{-1} Z R^{-H}
        # = D and W = R R^H satisfies W S W = Z.  Everything below lives in
        # that scaled space, where S and Z are both the diagonal D.
        u_mat, d, _ = scipy.linalg.svd(z_chol.conj().T @ s_chol)
        d = np.clip(d, 1e-300, None)
        r_mat = (z_chol @ u_mat) / np.sqrt(d)
        r_adj = r_mat.conj().T
        f_scaled = r_adj @ f_stack @ r_mat  # (m, r, r): R^H F_k R
        r_dual_scaled = r_adj @ r_dual @ r_mat
        w_diag = z_diag / s_diag  # scalar cones: W s W = z

        flat_scaled = f_scaled.reshape(m, -1)
        schur = 2.0 * (flat_scaled.conj() @ flat_scaled.T).real + (g_stack * w_diag) @ g_stack.T
        schur = 0.5 * (schur + schur.T)
        # <F_k, S^{-1}> and <F_k, W R_d W>, read in the scaled space
        a_vec = 2.0 * np.einsum("kii->ki", f_scaled).real @ (1.0 / d) + g_stack @ (1.0 / s_diag)
        h_vec = (
            2.0 * (flat_scaled.conj() @ r_dual_scaled.reshape(-1)).real
            + g_stack @ (w_diag * r_dual_d)
        )

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

        inv_sqrt_d = 1.0 / np.sqrt(d)
        inv_sqrt_outer = np.outer(inv_sqrt_d, inv_sqrt_d)

        def directions(nu):
            """dx, the scaled dS~ = R^H dS R, the scalar steps and both step lengths.

            dZ~ = nu D^{-1} - D - dS~, so either cone's ratio test is one
            eigenvalue of D^{-1/2} (.) D^{-1/2}, plus the scalar cones.
            """
            dx = solve_schur(nu * a_vec + h_vec - cvec)
            ds_scaled = np.tensordot(dx, f_scaled, axes=(0, 0)) - r_dual_scaled
            ds_d = dx @ g_stack - r_dual_d
            dz_d = nu / s_diag - z_diag - w_diag * ds_d
            ds_ratio = ds_scaled * inv_sqrt_outer
            dz_ratio = np.diag(nu / d**2 - 1.0) - ds_ratio
            lam_s = np.min(ds_d / s_diag, initial=scipy.linalg.eigvalsh(ds_ratio)[0])
            lam_z = np.min(dz_d / z_diag, initial=scipy.linalg.eigvalsh(dz_ratio)[0])
            alpha_s = min(1.0, STEP_FRACTION * _step_to_boundary(lam_s))
            alpha_z = min(1.0, STEP_FRACTION * _step_to_boundary(lam_z))
            return dx, ds_scaled, ds_d, dz_d, alpha_s, alpha_z

        # predictor pass sets the adaptive centering weight; <Z, S> is
        # invariant under the scaling, so it is evaluated on D
        _, dsa, dsa_d, dza_d, alpha_s, alpha_z = directions(0.0)
        dza = np.diag(-d) - dsa
        comp_aff = pair(
            np.diag(d) + alpha_z * dza, z_diag + alpha_z * dza_d,
            np.diag(d) + alpha_s * dsa, s_diag + alpha_s * dsa_d,
        )
        sigma = min(1.0, max(1e-10, (max(comp_aff, 0.0) / comp) ** 3))
        if max(res_p, res_d) > 10.0 * SOLVE_TOL:
            sigma = max(sigma, 1e-2)  # keep centering while still infeasible

        nu = sigma * comp / nu_dim
        dx, ds_scaled, ds_d, dz_d, alpha_s, alpha_z = directions(nu)
        ds = _hermitian(np.tensordot(dx, f_stack, axes=(0, 0)) - r_dual)
        dz = _hermitian(r_mat @ (np.diag(nu / d - d) - ds_scaled) @ r_adj)
        # fold back until both cone variables stay strictly positive; the
        # Cholesky factors that pass are the next iteration's scaling input
        shrink = 0
        while shrink < 30:
            s_new, s_new_d = s_mat + alpha_s * ds, s_diag + alpha_s * ds_d
            z_new, z_new_d = z_mat + alpha_z * dz, z_diag + alpha_z * dz_d
            if np.all(s_new_d > 0) and np.all(z_new_d > 0):
                s_new_chol = _cholesky(s_new)
                z_new_chol = None if s_new_chol is None else _cholesky(z_new)
                if z_new_chol is not None:
                    break
            alpha_s *= 0.8
            alpha_z *= 0.8
            shrink += 1
        if alpha_s <= 1e-13 or alpha_z <= 1e-13 or shrink >= 30:
            note = "step length collapsed"
            break
        x = x + alpha_s * dx
        s_mat, s_diag, s_chol = s_new, s_new_d, s_new_chol
        z_mat, z_diag, z_chol = z_new, z_new_d, z_new_chol

    _, _, comp, pobj, res_p, res_d, rel_gap = residuals(x, z_mat, z_diag, s_mat, s_diag)
    if best is not None and max(res_p, res_d, rel_gap) > best[0]:
        _, x, z_mat, res_p, res_d, rel_gap = best
    return x, z_mat, it, res_p, res_d, rel_gap, note


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the stability program with certificates.

    The temperature enters as one more scalar variable bounded below by a
    scalar cone; a vanishing optimal temperature is legal output and is
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
        # variables: free y components, T, mu
        f_stack = np.stack(a_free + [l0, -np.eye(r)])
        g_stack = np.zeros((len(free) + 2, 1))
        g_stack[len(free), 0] = 1.0  # scalar cone enforcing T >= 0
        f0 = -const
    else:
        f_stack = np.concatenate([h_mats, -np.eye(r)[None]])
        g_stack = np.zeros((q + 1, 0))
        f0 = -fixed_t / scale * problem.l0
    cvec = np.zeros(f_stack.shape[0])
    cvec[-1] = -1.0  # maximize mu

    x, certificate, iterations, res_p, res_d, rel_gap, note = _solve_standard(
        f_stack, f0, g_stack, cvec
    )

    if fixed_t is None:
        y = np.zeros(q)
        for i, a in enumerate(free):
            y[a] = x[i]
        y[pivot] = (-1.0 - sum(w[a] * y[a] for a in free)) / w[pivot]
        t_star = float(x[len(free)])
    else:
        y = x[:q].copy()
        t_star = float(fixed_t)
    mu_star = float(x[-1]) * scale

    if -1e-9 < t_star < 0:
        t_star = 0.0
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
        res_p <= FEAS_TOL
        and res_d <= FEAS_TOL
        and rel_gap <= GAP_TOL
        and lambda_gap <= 1e4 * scale * max(GAP_TOL, rel_gap)
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

    def worst_violation(self) -> float:
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

    Uses direct complex Hermitian eigensolves on the original (unscaled)
    data, a code path disjoint from the solver's Cholesky-scaled iterates.
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
