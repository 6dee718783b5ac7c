import numpy as np
import pytest
import scipy.linalg

from gibbslearn.errors import DeltaNotPositive, NormalizationDegenerate
from gibbslearn.sdp import (
    SdpOptions,
    SdpProblem,
    SdpSolution,
    SolverStatus,
    check_solution,
    log_psd,
    solve,
)

from oracles import sdp_bisection_oracle


def random_hermitian(rng, r, traceless=True):
    raw = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    mat = 0.5 * (raw + raw.conj().T)
    if traceless:
        mat -= np.trace(mat).real / r * np.eye(r)
    return mat


def random_problem(rng, q, r):
    """Bounded random instance: traceless directions keep the margin finite."""
    l0 = random_hermitian(rng, r)
    h_mats = np.stack([random_hermitian(rng, r) for _ in range(q)])
    w = rng.normal(size=q)
    while np.abs(w).max() < 0.3:
        w = rng.normal(size=q)
    return SdpProblem(l0, h_mats, w)


class TestLogPsd:
    def test_identity(self):
        l0, basis = log_psd(np.eye(3))
        assert basis is None and np.abs(l0).max() < 1e-14

    def test_diagonal(self):
        l0, _ = log_psd(np.diag([np.e**2, np.e**-1]))
        assert np.abs(l0 - np.diag([2.0, -1.0])).max() < 1e-12

    def test_raises_on_nonpositive(self):
        with pytest.raises(DeltaNotPositive) as err:
            log_psd(np.diag([1.0, -0.2]))
        assert err.value.eigenvalues[0] == pytest.approx(-0.2)

    def test_projection_mode(self):
        l0, basis = log_psd(np.diag([1.0, -0.2, 4.0]), project=True)
        assert basis is not None and basis.shape == (3, 2)
        assert np.abs(np.sort(np.diag(l0).real) - np.sort([0.0, np.log(4.0)])).max() < 1e-12


class TestAnalyticCases:
    def test_temperature_pinned_at_zero(self):
        prob = SdpProblem(
            np.diag([-1.0, -2.0]).astype(complex),
            np.array([np.diag([1.0, 2.0])], dtype=complex),
            np.array([-1.0]),
        )
        sol = solve(prob)
        assert sol.status is SolverStatus.OPTIMAL
        assert abs(sol.mu_star - 1.0) < 1e-6
        assert abs(sol.t_star) < 1e-6
        assert abs(sol.y_star[0] - 1.0) < 1e-9
        assert sol.t_star <= 1e-7

    def test_exact_cancellation(self):
        l0 = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        prob = SdpProblem(l0, np.array([-l0]), np.array([-1.0]))
        sol = solve(prob)
        assert abs(sol.mu_star) < 1e-8
        assert abs(sol.t_star - 1.0) < 1e-6

    def test_matches_1d_bisection(self, rng):
        for _ in range(5):
            prob = random_problem(rng, 1, 8)
            sol = solve(prob)
            mu_ref, y_ref, t_ref = sdp_bisection_oracle(
                prob.l0, prob.h_tilde_mats, prob.h_tilde_expectations
            )
            assert abs(sol.mu_star - mu_ref) < 1e-4


class TestSolverProperties:
    def test_certificates_and_residuals(self, rng):
        for _ in range(5):
            prob = random_problem(rng, 2, 10)
            sol = solve(prob)
            assert sol.status is SolverStatus.OPTIMAL
            report = check_solution(prob, sol)
            assert report.lmi_min_eig >= -1e-7
            assert report.normalization_residual < 1e-9
            assert report.certificate_min_eig >= -1e-9
            assert abs(report.certificate_trace - 1.0) < 1e-7
            assert report.certificate_orthogonality < 1e-6
            assert report.certificate_l0_pairing <= 1e-8
            assert abs(report.duality_gap) < 1e-6

    def test_perturbed_point_flags_violation(self, rng):
        prob = random_problem(rng, 2, 6)
        sol = solve(prob)
        bumped = SdpSolution(
            y_star=sol.y_star + 1e-2,
            t_star=sol.t_star,
            mu_star=sol.mu_star,
            status=sol.status,
            dual_certificate=sol.dual_certificate,
            kkt_residuals=sol.kkt_residuals,
            iterations=sol.iterations,
            note=sol.note,
        )
        report = check_solution(prob, bumped)
        assert report.normalization_residual > 1e-3

    def test_monotone_in_kernel_size(self, rng):
        # enlarging the candidate set can only improve the margin
        r = 8
        l0 = random_hermitian(rng, r)
        mats = np.stack([random_hermitian(rng, r) for _ in range(3)])
        w = np.array([1.0, -0.8, 0.5])
        mu_small = solve(SdpProblem(l0, mats[:1], w[:1])).mu_star
        mu_mid = solve(SdpProblem(l0, mats[:2], w[:2])).mu_star
        mu_full = solve(SdpProblem(l0, mats, w)).mu_star
        assert mu_mid >= mu_small - 1e-7
        assert mu_full >= mu_mid - 1e-7

    def test_scale_covariance(self, rng):
        # h-matrices and expectations scaled together: margin and temperature
        # are unchanged, and the scaled coefficients pulled back by the scale
        # remain optimal for the base problem (the optimizer itself need not
        # be unique when the smallest eigenvalue is flat along the plane)
        prob = random_problem(rng, 2, 6)
        sol = solve(prob)
        c = 3.7
        scaled = SdpProblem(
            prob.l0, c * prob.h_tilde_mats, c * prob.h_tilde_expectations
        )
        sol_scaled = solve(scaled)
        assert abs(sol_scaled.mu_star - sol.mu_star) < 1e-6
        assert abs(sol_scaled.t_star - sol.t_star) < 1e-5
        pulled = SdpSolution(
            y_star=c * sol_scaled.y_star,
            t_star=sol_scaled.t_star,
            mu_star=sol_scaled.mu_star,
            status=sol_scaled.status,
            dual_certificate=None,
            kkt_residuals=sol_scaled.kkt_residuals,
            iterations=sol_scaled.iterations,
            note=sol_scaled.note,
        )
        report = check_solution(prob, pulled)
        assert report.normalization_residual < 1e-8
        assert report.lmi_min_eig >= -1e-7
        assert abs(report.lmi_min_eig) < 1e-6

    def test_normalization_degenerate(self, rng):
        l0 = random_hermitian(rng, 4)
        mats = np.stack([random_hermitian(rng, 4)])
        with pytest.raises(NormalizationDegenerate):
            solve(SdpProblem(l0, mats, np.array([0.0])))

    def test_fixed_temperature_variant(self, rng):
        # pinning T recovers the cancellation case without the normalization
        l0 = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        opts = SdpOptions(fixed_temperature=1.0)
        prob = SdpProblem(l0, np.array([-l0]), np.array([0.0]), opts)
        sol = solve(prob)
        assert sol.status is SolverStatus.OPTIMAL
        assert abs(sol.mu_star) < 1e-7
        assert abs(sol.y_star[0] - 1.0) < 1e-6
        assert sol.t_star == 1.0

    def test_fixed_temperature_random_complex(self, rng):
        # the variant without the scalar temperature cone, on generic data
        prob = random_problem(rng, 2, 8)
        prob.options = SdpOptions(fixed_temperature=0.7)
        sol = solve(prob)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.t_star == 0.7
        assert check_solution(prob, sol).worst_violation() <= 1e-7

    def test_rejects_nonhermitian(self, rng):
        bad = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(ValueError):
            SdpProblem(bad, np.stack([np.eye(3)]), np.array([1.0]))


class TestSolverCost:
    def test_factorizations_stay_small_and_few(self, rng, monkeypatch):
        # the interior-point method works on the r x r Hermitian block and
        # scales with Cholesky factors: no eigendecomposition, no 2r+1 real
        # embedding, and a handful of factorizations per iteration
        r = 8
        calls = []

        def counted(name, fn):
            def wrapper(mat, *args, **kwargs):
                calls.append((name, np.shape(mat)))
                return fn(mat, *args, **kwargs)

            return wrapper

        prob = random_problem(rng, 2, r)
        for name in ("eigh", "eigvalsh", "cholesky", "cho_factor", "svd"):
            monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
        sol = solve(prob)
        monkeypatch.undo()
        assert sol.status is SolverStatus.OPTIMAL
        assert not [c for c in calls if c[0] == "eigh"]
        assert max(max(shape) for _, shape in calls) <= r
        assert len(calls) <= 7 * sol.iterations
