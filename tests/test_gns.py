import numpy as np
import pytest
import scipy.linalg

from gibbslearn.gns import (
    GNS_SITE_LIMIT,
    LindbladSpec,
    build_gns,
    check_matrix_eeb,
    check_quasisymmetry,
    check_rts,
    evolve_state,
    free_energy,
    free_energy_derivative,
    heisenberg_superoperator,
    lindblad_apply,
    run_battery,
)
from gibbslearn.models import xxz_chain
from gibbslearn.pauli import PauliOperator, PauliString, all_strings, dense_matrix
from gibbslearn.states import gibbs_density

from oracles import kron_operator


def diag_state(p):
    return np.diag([p, 1 - p]).astype(complex)


class TestGnsSpace:
    def test_tracial_modular_operator_is_identity(self):
        rho = gibbs_density(PauliOperator.zero(1), 1.0)
        space = build_gns(rho)
        assert np.abs(space.delta - np.eye(4)).max() < 1e-12

    def test_two_level_modular_spectrum(self):
        p = 0.7
        space = build_gns(diag_state(p))
        got = np.sort(scipy.linalg.eigvalsh(0.5 * (space.delta + space.delta.conj().T)))
        expected = np.sort([1.0, 1.0, p / (1 - p), (1 - p) / p])
        assert np.abs(got - expected).max() < 1e-12

    def test_inner_product_matches_state(self, rng):
        h = xxz_chain(2)
        rho = gibbs_density(h, 1.0)
        space = build_gns(rho)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = np.vdot(space.vector(a), space.vector(b))
            rhs = np.trace(rho @ a.conj().T @ b)
            assert abs(lhs - rhs) < 1e-12

    def test_left_right_are_representations(self, rng):
        rho = gibbs_density(xxz_chain(2), 0.8)
        space = build_gns(rho)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(
            space.left_rep(a) @ space.left_rep(b) - space.left_rep(a @ b)
        ).max() < 1e-10
        # the adjoint inside pi_r makes it a homomorphism as well
        assert np.abs(
            space.right_rep(a) @ space.right_rep(b) - space.right_rep(a @ b)
        ).max() < 1e-10

    def test_vector_operator_roundtrip(self, rng):
        rho = gibbs_density(xxz_chain(2), 1.0)
        space = build_gns(rho)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(space.operator_of(space.vector(a)) - a).max() < 1e-10

    def test_conjugation_matches_definition(self, rng):
        rho = gibbs_density(xxz_chain(2), 0.9)
        space = build_gns(rho)
        evals, evecs = scipy.linalg.eigh(rho)
        sqrt_rho = (evecs * np.sqrt(evals)) @ evecs.conj().T
        inv_sqrt_rho = (evecs / np.sqrt(evals)) @ evecs.conj().T
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        direct = space.vector(sqrt_rho @ a.conj().T @ inv_sqrt_rho)
        assert np.abs(space.conjugation(space.vector(a)) - direct).max() < 1e-9

    def test_rejects_nonfaithful(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            build_gns(rho)

    def test_site_limit(self):
        with pytest.raises(Exception):
            build_gns(gibbs_density(PauliOperator.zero(GNS_SITE_LIMIT + 1), 1.0))

    def test_gram_field_matches_expectations(self):
        rho = gibbs_density(xxz_chain(2), 1.2)
        space = build_gns(rho)
        basis = all_strings(2)
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                direct = np.trace(
                    rho @ kron_operator(PauliOperator.from_string(basis[i]))
                    @ kron_operator(PauliOperator.from_string(basis[j]))
                )
                gram = np.vdot(space.vector(basis[i]), space.vector(basis[j]))
                assert abs(gram - direct) < 1e-10


class TestLindblad:
    def test_zero_spec_is_zero_map(self):
        spec = LindbladSpec([PauliOperator.from_terms(1, [(1.0, "X0")])], [[0.0]], [[0.0]])
        out = lindblad_apply(spec, PauliOperator.from_terms(1, [(1.0, "Z0")]))
        assert not out.any()

    def test_identity_is_fixed_point(self, rng):
        # unitality: the Heisenberg generator kills the identity
        b_ops = [
            PauliOperator.from_terms(2, [(1.0, "X0"), (0.3 + 0.2j, "Y1")]),
            PauliOperator.from_terms(2, [(0.5, "Z0 Z1")]),
        ]
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam = raw @ raw.conj().T
        m = 0.5 * (raw - raw.conj().T)
        spec = LindbladSpec(b_ops, m, lam)
        out = lindblad_apply(spec, PauliOperator.from_string(PauliString.identity(2)))
        assert np.abs(out).max() < 1e-12

    def test_amplitude_damping_generator(self):
        # jump operator |0><1|: in the Heisenberg picture L(Z) = 2(I - Z)... up
        # to convention: check against the hand-expanded dissipator
        sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)
        spec = LindbladSpec([sigma_minus], [[0.0]], [[1.0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        got = lindblad_apply(spec, z)
        bd = sigma_minus.conj().T
        expected = bd @ z @ sigma_minus - 0.5 * (bd @ sigma_minus @ z + z @ bd @ sigma_minus)
        assert np.abs(got - expected).max() < 1e-12
        # the excited-state projector decays at unit rate
        proj_exc = bd @ sigma_minus
        got_p = lindblad_apply(spec, proj_exc)
        assert np.abs(got_p + proj_exc).max() < 1e-12

    def test_superoperator_matches_apply(self, rng):
        b_ops = [PauliOperator.from_terms(1, [(1.0, "X0")]),
                 PauliOperator.from_terms(1, [(0.7, "Y0")])]
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        spec = LindbladSpec(b_ops, 0.5 * (raw - raw.conj().T), raw @ raw.conj().T)
        sup = heisenberg_superoperator(spec, 1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direct = lindblad_apply(spec, a)
        assert np.abs((sup @ a.reshape(-1)).reshape(2, 2) - direct).max() < 1e-10

    def test_evolution_preserves_trace(self, rng):
        rho = gibbs_density(xxz_chain(2), 1.0)
        b_ops = [PauliOperator.from_terms(2, [(1.0, "X0 X1")])]
        spec = LindbladSpec(b_ops, [[0.0]], [[1.0]])
        evolved = evolve_state(spec, rho, 0.1, 2)
        assert abs(np.trace(evolved) - 1.0) < 1e-10
        assert np.abs(evolved - evolved.conj().T).max() < 1e-10

    def test_validation(self):
        b = [PauliOperator.from_terms(1, [(1.0, "X0")])]
        with pytest.raises(ValueError):
            LindbladSpec(b, [[1.0]], [[1.0]])  # coupling not anti-Hermitian
        with pytest.raises(ValueError):
            LindbladSpec(b, [[0.0]], [[-1.0]])  # dissipation not PSD


class TestFreeEnergyDerivative:
    def test_gibbs_pair_is_stationary(self, rng):
        h = xxz_chain(2)
        t = 1.4
        rho = gibbs_density(h, t)
        b_ops = [PauliOperator.from_terms(2, [(1.0, "X0")]),
                 PauliOperator.from_terms(2, [(1.0, "Z0 Z1")])]
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        spec = LindbladSpec(b_ops, 0.5 * (raw - raw.conj().T), raw @ raw.conj().T)
        value = free_energy_derivative(build_gns(rho), h, t, spec)
        assert abs(value) < 1e-9

    def test_matches_finite_difference(self, rng):
        h = xxz_chain(2) + PauliOperator.from_terms(2, [(0.3, "X0")])
        rho = gibbs_density(xxz_chain(2), 1.0)
        b_ops = [PauliOperator.from_terms(2, [(1.0, "X0 Y1")]),
                 PauliOperator.from_terms(2, [(1.0, "Z1")])]
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        spec = LindbladSpec(b_ops, 0.5 * (raw - raw.conj().T), raw @ raw.conj().T / 4.0)
        t = 0.9
        analytic = free_energy_derivative(build_gns(rho), h, t, spec)
        h_mat = dense_matrix(h)
        step = 1e-5
        fd = (
            free_energy(evolve_state(spec, rho, step, 2), h_mat, t)
            - free_energy(evolve_state(spec, rho, -step, 2), h_mat, t)
        ) / (2 * step)
        assert abs(analytic - fd) < 1e-5 * max(1.0, abs(fd))

    def test_pure_coupling_keeps_entropy(self, rng):
        # with no dissipative part the entropy rate vanishes identically
        rho = gibbs_density(xxz_chain(2), 1.1)
        b_ops = [PauliOperator.from_terms(2, [(1.0, "X0")]),
                 PauliOperator.from_terms(2, [(1.0, "Y1")])]
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        spec = LindbladSpec(b_ops, 0.5 * (raw - raw.conj().T), np.zeros((2, 2)))
        step = 1e-5

        def entropy(t):
            evals = scipy.linalg.eigvalsh(evolve_state(spec, rho, t, 2))
            return -float(np.sum(evals * np.log(evals)))

        assert abs((entropy(step) - entropy(-step)) / (2 * step)) < 1e-8


class TestStabilityChecks:
    def test_gibbs_pair_is_stable(self):
        h = xxz_chain(2)
        t = 1.0
        rho = gibbs_density(h, t)
        ok, min_eig = check_rts(build_gns(rho), h, t, all_strings(2))
        assert ok and abs(min_eig) < 1e-9

    def test_temperature_mismatch_detected_at_full_span(self):
        h = xxz_chain(2)
        rho = gibbs_density(h, 1.0)
        ok, min_eig = check_rts(build_gns(rho), h, 2.0, all_strings(2))
        assert not ok and min_eig < -1e-3

    def test_rts_span_invariance(self, rng):
        h = xxz_chain(2)
        space = build_gns(gibbs_density(h, 1.0))
        strings = all_strings(2, include_identity=False)[:6]
        base = [dense_matrix(PauliOperator.from_string(s)) for s in strings]
        mix = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mixed = [sum(mix[i, k] * base[k] for k in range(6)) for i in range(6)]
        ok1, e1 = check_rts(space, h, 1.7, base)
        ok2, e2 = check_rts(space, h, 1.7, mixed)
        assert ok1 == ok2
        assert abs(e1 - e2) < 1e-8

    def test_jensen_equality_on_modular_invariant_span(self):
        # span built from eigenvectors of the modular operator: compression
        # commutes with it, so the log-compression gap closes even though
        # the projection is proper
        h = xxz_chain(2)
        t = 1.3
        space = build_gns(gibbs_density(h, t))
        evals, evecs = scipy.linalg.eigh(0.5 * (space.delta + space.delta.conj().T))
        picks = [1, 4, 9, 12]
        b_ops = [space.operator_of(evecs[:, i]) for i in picks]
        lhs_min, rhs_min, gap_ok = check_matrix_eeb(space, h, t, b_ops)
        assert gap_ok
        assert abs(lhs_min - rhs_min) < 1e-8

    def test_jensen_gap_psd_on_restricted_span(self, rng):
        h = xxz_chain(3)
        space = build_gns(gibbs_density(h, 1.0))
        strings = all_strings(3, include_identity=False)
        picks = rng.choice(len(strings), size=5, replace=False)
        b_ops = [strings[i] for i in picks]
        lhs_min, rhs_min, gap_ok = check_matrix_eeb(space, h, 1.0, b_ops)
        assert gap_ok
        assert lhs_min >= -1e-9  # RTS pair keeps both forms nonnegative

    def test_quasisymmetry_cases(self):
        h_z = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        space = build_gns(gibbs_density(h_z, 1.0))
        # a symmetry is a quasi-symmetry for any span
        assert check_quasisymmetry(space, h_z, [PauliString.from_text("X0", 1)])
        # a non-commuting observable is caught on the full span
        h_x = PauliOperator.from_terms(1, [(1.0, "X0")])
        assert not check_quasisymmetry(space, h_x, all_strings(1))


class TestBattery:
    @pytest.mark.parametrize(
        "n_max, instances", [(0, 1), (-1, 1), (GNS_SITE_LIMIT + 1, 1), (2, 0)]
    )
    def test_refuses_empty_or_oversized(self, n_max, instances):
        with pytest.raises(ValueError, match="verification battery"):
            run_battery(n_max=n_max, instances=instances)

    def test_small_battery_passes(self):
        results = run_battery(n_max=2, seed=3, instances=6)
        for check in results:
            assert check.passed, check.line()

    def test_check_list_is_pinned(self):
        # a simplification may not drop a check or loosen its tolerance
        results = run_battery(n_max=2, seed=3, instances=6)
        assert [(c.name, c.tolerance, c.instances) for c in results] == [
            ("representations_commute", 1e-9, 6),
            ("delta_sesquilinear_form", 1e-9, 6),
            ("log_delta_expression", 1e-9, 6),
            ("j_involution", 1e-9, 6),
            ("j_flips_commuting_hamiltonian", 1e-9, 6),
            ("spectrum_symmetry", 1e-9, 6),
            ("energy_rate_identity", 1e-9, 6),
            ("entropy_rate_finite_difference", 1e-5, 6),
            ("free_energy_derivative_finite_difference", 1e-5, 6),
            ("jensen_gap_psd", 0.5, 6),
            ("jensen_equality_full_span", 1e-8, 6),
            ("quasisymmetry_symmetric_case", 0.5, 6),
            ("quasisymmetry_dual_agreement", 0.5, 6),
            ("rts_gibbs_pair", 0.5, 6),
            ("rts_temperature_mismatch", 0.5, 6),
        ]
