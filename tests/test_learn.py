import math

import numpy as np
import pytest

from gibbslearn.errors import DeltaNotPositive, NormalizationDegenerate
from gibbslearn.learn import (
    ReconstructOptions,
    Verdict,
    evaluate_recovery,
    reconstruct,
    recovery_angle,
    temperature_ratio,
)
from gibbslearn.moments import MomentAssembler
from gibbslearn.models import (
    coefficient_vector,
    random_k_local_hamiltonian,
    string_basis_operators,
    xxz_chain,
)
from gibbslearn.pauli import PauliOperator, all_strings, enumerate_geometric_k_local
from gibbslearn.states import add_noise, build_table, gibbs_density


class TestMetrics:
    def test_angle_basic(self):
        y = np.array([1.0, 2.0])
        assert recovery_angle(y, y) <= 1e-7
        assert recovery_angle(y, -y) <= 1e-7  # sign-insensitive
        assert recovery_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.pi / 2
        )

    def test_angle_resolves_small_angles(self):
        # acos of the cosine rounds every angle below about 1e-8 to 0
        y = np.array([1.0, 1e-9])
        assert recovery_angle(y, np.array([1.0, 0.0])) == pytest.approx(1e-9, rel=1e-6)
        assert recovery_angle(-3.0 * y, np.array([2.0, 0.0])) == pytest.approx(1e-9, rel=1e-6)

    def test_angle_rejects_zero(self):
        with pytest.raises(ValueError):
            recovery_angle(np.zeros(2), np.ones(2))

    def test_ratio_gauge(self):
        z = np.array([0.5, -1.0])
        ratio, c = temperature_ratio(z, 2.0, z, 2.0)
        assert ratio == pytest.approx(1.0) and c == pytest.approx(1.0)
        ratio, c = temperature_ratio(2 * z, 4.0, z, 2.0)
        assert ratio == pytest.approx(1.0) and c == pytest.approx(2.0)

    def test_ratio_unreliable_when_orthogonal(self):
        ratio, c = temperature_ratio(np.array([0.0, 1.0]), 1.0, np.array([1.0, 0.0]), 1.0)
        assert math.isnan(ratio) and c == 0.0


class TestReconstructSmall:
    def test_single_qubit_recovery(self):
        # thermal state of -Z at T=1; the span of all three letters is the
        # full traceless algebra, so the reconstruction is exact
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, asm.required_strings())
        result = reconstruct(table, asm)
        assert result.verdict is Verdict.CANDIDATE
        z = coefficient_vector(h, b)
        report = evaluate_recovery(result, z, 1.0)
        assert report.theta <= 1e-6
        assert abs(report.temperature_ratio - 1.0) <= 1e-4
        assert abs(result.mu_star) <= 1e-7

    def test_maximally_mixed_degenerates(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        b = all_strings(2, include_identity=False)
        h_terms = string_basis_operators(b[:4])
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, asm.required_strings())
        with pytest.raises(NormalizationDegenerate):
            reconstruct(table, asm)

    def test_maximally_mixed_fixed_temperature_fallback(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        b = all_strings(2, include_identity=False)
        h_terms = string_basis_operators(b[:4])
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, asm.required_strings())
        opts = ReconstructOptions(fixed_temperature_fallback=1.0)
        result = reconstruct(table, asm, opts)
        # every probed term is a symmetry of the tracial state, so the whole
        # candidate space survives, and the zero Hamiltonian fits with margin 0
        assert result.diagnostics.q == len(h_terms)
        assert result.verdict is Verdict.CANDIDATE
        assert abs(result.mu_star) < 1e-7

    def test_not_stationary(self):
        # thermal state of Z probed with the X direction only: no candidate
        # term is conserved, the kernel is empty
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = [PauliOperator.from_terms(1, [(1.0, "X0")])]
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, asm.required_strings())
        result = reconstruct(table, asm)
        assert result.verdict is Verdict.NOT_STATIONARY
        assert result.diagnostics.q == 0
        assert result.y_star is None

    def test_gauge_invariance(self, rng):
        # the state of (c h, c T) is identical, so the verdict and the
        # recovery angle cannot change
        h, z, terms = random_k_local_hamiltonian(3, 2, rng, coeff_norm=0.8)
        b = all_strings(3, include_identity=False)
        h_terms = string_basis_operators(terms)
        asm = MomentAssembler(b, h_terms)
        outputs = []
        for c in (1.0, 2.5):
            rho = gibbs_density(c * h, c * 1.2)
            table = build_table(rho, asm.required_strings())
            result = reconstruct(table, asm)
            report = evaluate_recovery(result, z, 1.2)
            outputs.append((result.verdict, report.theta))
        assert outputs[0][0] == outputs[1][0] == Verdict.CANDIDATE
        assert abs(outputs[0][1] - outputs[1][1]) < 1e-6

    def test_feasibility_under_restriction(self, rng):
        # restricted two-local span never certifies a true thermal state away
        from gibbslearn.pauli import enumerate_geometric_k_local

        for n in (3, 4, 5):
            h, z, terms = random_k_local_hamiltonian(n, 2, rng, coeff_norm=0.8)
            b = enumerate_geometric_k_local(n, 2)
            h_terms = string_basis_operators(terms)
            asm = MomentAssembler(b, h_terms)
            rho = gibbs_density(h, 1.5)
            table = build_table(rho, asm.required_strings())
            result = reconstruct(table, asm)
            assert result.verdict is Verdict.CANDIDATE
            assert result.mu_star >= -1e-7

    def test_project_delta_restricts_to_eigenvalues_above_floor(self):
        # a floor inside the modular spectrum: without projection the
        # reconstruction refuses, with it the problem is restricted to the
        # eigenvectors above the floor
        n = 4
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(gibbs_density(xxz_chain(n), 1.0), asm.required_strings())
        _, moments = asm.moment_set(table)
        evals = np.linalg.eigvalsh(moments.delta)
        # the spectrum is symmetric under lambda -> 1/lambda around a cluster
        # of eigenvalues at 1, so put the floor in the gap just below that
        # cluster, where rounding cannot move an eigenvalue across it
        below = int(np.count_nonzero(evals < 1 - 1e-8))
        floor = math.sqrt(evals[below - 1] * evals[below])
        kept = int(np.count_nonzero(evals > floor))
        assert 0 < kept < len(b)
        with pytest.raises(DeltaNotPositive):
            reconstruct(table, asm, ReconstructOptions(delta_floor=floor))
        opts = ReconstructOptions(delta_floor=floor, project_delta=True)
        result = reconstruct(table, asm, opts)
        assert result.verdict in (Verdict.CANDIDATE, Verdict.NOT_GIBBS)
        assert result.diagnostics.projected_dim == kept

    def test_rank_deficient_state_is_rejected_or_refuted(self):
        # ground-state-like density (regularized projector) is far from
        # thermal for generic couplings: expect a degeneracy error or a
        # certified negative margin
        import scipy.linalg

        from gibbslearn.errors import GramDegenerate
        from gibbslearn.pauli import dense_matrix
        from gibbslearn.states import DensityMatrix

        n = 2
        h = xxz_chain(n)
        evals, evecs = scipy.linalg.eigh(dense_matrix(h))
        ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
        dim = 1 << n
        mat = (1 - 1e-12 * dim) * ground + 1e-12 * np.eye(dim)
        mat /= np.trace(mat).real
        rho = DensityMatrix.from_matrix(n, mat)
        b = all_strings(n, include_identity=False)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, asm.required_strings())
        try:
            result = reconstruct(table, asm)
            assert result.verdict in (Verdict.NOT_GIBBS, Verdict.CANDIDATE)
            if result.verdict is Verdict.CANDIDATE:
                # an almost-pure state can only pass with a huge inverse
                # temperature scale; the margin must still be tiny
                assert result.mu_star < 1e-3
        except GramDegenerate:
            pass


class TestCentralPath:
    def test_xxz_n6_iterations_and_temperature(self):
        # a solver rewrite must follow the same interior-point path: these
        # are the iteration count and T* of the real-embedding solver that
        # preceded the complex Hermitian one
        n = 6
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        exact = build_table(gibbs_density(xxz_chain(n, 0.5), 1.0), asm.required_strings())
        table = add_noise(exact, 1e-8, np.random.SeedSequence(0))
        result = reconstruct(table, asm)
        assert result.verdict is Verdict.CANDIDATE
        assert result.diagnostics.solver_iterations == 13
        assert result.t_star == pytest.approx(0.203138265318453, rel=1e-8)


class TestResultSerialization:
    def test_save_fields(self, tmp_path):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, asm.required_strings())
        result = reconstruct(table, asm)
        path = tmp_path / "result.txt"
        result.save(path)
        text = path.read_text()
        for key in (
            "verdict = Candidate",
            "t_star = ",
            "mu_star = ",
            "q = 1",
            "epsilon_w = ",
            "delta_min_eig = ",
            "gram_min_eig = ",
            "gram_eigenvalues = ",
            "w_spectrum = ",
            "solver_status = Optimal",
            "coeff.Z0 = ",
        ):
            assert key in text, key
        line = next(l for l in text.splitlines() if l.startswith("gram_eigenvalues = "))
        values = [float(v) for v in line.partition(" = ")[2].split()]
        assert values == result.diagnostics.gram_eigenvalues.tolist()
