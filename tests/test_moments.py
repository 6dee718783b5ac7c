import numpy as np
import pytest
import scipy.linalg

from gibbslearn.errors import DimensionMismatch, GramDegenerate
from gibbslearn.gns import build_gns
from gibbslearn.moments import (
    MomentAssembler,
    assemble_from_matrices,
    build_w,
    delta_from_gram,
    epsilon_w,
    kernel_basis,
    orthonormalize,
)
from gibbslearn.models import random_k_local_hamiltonian, string_basis_operators, xxz_chain
from gibbslearn.pauli import (
    PauliOperator,
    PauliString,
    all_strings,
    commutator,
    enumerate_geometric_k_local,
    masks,
    multiply,
)
from gibbslearn.states import add_noise, build_table, gibbs_density, required_strings


def make_setup(n, temperature, rng, b=None, h_strings=None):
    h, z, terms = random_k_local_hamiltonian(n, min(2, n), rng, coeff_norm=0.8)
    b = b if b is not None else all_strings(n, include_identity=False)
    h_terms = string_basis_operators(h_strings if h_strings is not None else terms)
    asm = MomentAssembler(b, h_terms)
    rho = gibbs_density(h, temperature)
    table = build_table(rho, required_strings(b, h_terms))
    return h, z, b, h_terms, asm, rho, table


class TestGram:
    def test_tracial_state_gives_identity(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        b = all_strings(2, include_identity=False)
        products = {PauliString(2, p.x ^ q.x, p.z ^ q.z) for p in b for q in b}
        table = build_table(rho, masks(list(products)))
        gram = MomentAssembler(b, []).gram(table)
        assert np.abs(gram - np.eye(len(b))).max() < 1e-13

    def test_single_qubit_thermal_gram(self):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = [PauliString.from_text("X0", 1), PauliString.from_text("Y0", 1)]
        table = build_table(rho, masks(all_strings(1)))
        gram = MomentAssembler(b, []).gram(table)
        t = np.tanh(1.0)
        expected = np.array([[1.0, 1j * t], [-1j * t, 1.0]])
        assert np.abs(gram - expected).max() < 1e-12

    def test_faithful_state_positive(self, rng):
        _, _, _, _, asm, _, table = make_setup(2, 0.9, rng)
        evals = scipy.linalg.eigvalsh(asm.gram(table))
        assert evals.min() > 0


class TestOrthonormalize:
    def test_identity_gram(self):
        basis = orthonormalize(np.eye(4))
        assert np.abs(basis.coeffs - np.eye(4)).max() == 0

    def test_diagonal_gram(self):
        basis = orthonormalize(np.diag([4.0, 1.0]))
        assert np.abs(basis.coeffs - np.diag([0.5, 1.0])).max() < 1e-14

    def test_random_pd(self, rng):
        raw = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        gram = raw @ raw.conj().T + 0.5 * np.eye(20)
        basis = orthonormalize(gram)
        c = basis.coeffs
        assert np.abs(c @ gram @ c.conj().T - np.eye(20)).max() < 1e-10
        assert np.all(np.diff(basis.gram_eigenvalues) <= 0)

    def test_degenerate_raises_with_eigenvalues(self):
        gram = np.diag([1.0, 1e-14])
        with pytest.raises(GramDegenerate) as err:
            orthonormalize(gram)
        assert err.value.eigenvalues and err.value.eigenvalues[0] <= err.value.floor


class TestDeltaAndH:
    def test_tracial_delta_is_identity(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        b = all_strings(2, include_identity=False)
        asm = MomentAssembler(b, [])
        table = build_table(rho, required_strings(b, []))
        gram = asm.gram(table)
        delta = delta_from_gram(gram, orthonormalize(gram).coeffs)
        assert np.abs(delta - np.eye(len(b))).max() < 1e-12

    def test_single_qubit_modular_spectrum(self):
        # thermal single qubit on span {X, Y}: the span is invariant under
        # modular conjugation, so the compressed spectrum is exp(+-2/T)
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        t = 1.0
        rho = gibbs_density(h, t)
        b = [PauliString.from_text("X0", 1), PauliString.from_text("Y0", 1)]
        asm = MomentAssembler(b, [])
        table = build_table(rho, required_strings(b, []))
        gram = asm.gram(table)
        delta = delta_from_gram(gram, orthonormalize(gram).coeffs)
        got = np.sort(scipy.linalg.eigvalsh(delta))
        expected = np.sort([np.exp(-2.0 / t), np.exp(2.0 / t)])
        assert np.abs(got - expected).max() < 1e-10

    def test_delta_matches_gns_compression(self, rng):
        for n in (1, 2, 3):
            _, _, b, h_terms, asm, rho, table = make_setup(n, 1.2, rng)
            ortho, moments = asm.moment_set(table)
            space = build_gns(rho)
            vecs = np.column_stack([space.vector(p) for p in b]) @ ortho.coeffs
            proj = vecs.conj().T
            delta_oracle = proj @ space.delta @ proj.conj().T
            assert np.abs(moments.delta - delta_oracle).max() < 1e-9

    def test_full_spectrum_ratios(self, rng):
        # with b spanning everything, the moment matrix carries the whole
        # modular spectrum: all ratios of state eigenvalues
        h, _, b, _, asm, rho, table = make_setup(2, 1.5, rng)
        ortho, moments = asm.moment_set(table)
        evals = scipy.linalg.eigvalsh(rho)
        ratios = np.sort([a / c for a in evals for c in evals])[: len(b)]
        got = np.sort(scipy.linalg.eigvalsh(moments.delta))
        full = np.sort([a / c for a in evals for c in evals])
        # drop one unit eigenvalue (the identity direction is excluded)
        idx = np.argmin(np.abs(full - 1.0))
        full = np.delete(full, idx)
        assert np.abs(got - full).max() < 1e-8

    def test_h_matrix_matches_gns(self, rng):
        for n in (1, 2, 3):
            _, _, b, h_terms, asm, rho, table = make_setup(n, 0.9, rng)
            ortho, moments = asm.moment_set(table)
            space = build_gns(rho)
            vecs = np.column_stack([space.vector(p) for p in b]) @ ortho.coeffs
            proj = vecs.conj().T
            for alpha, op in enumerate(h_terms):
                oracle = proj @ space.gns_hamiltonian(op) @ proj.conj().T
                assert np.abs(moments.raw_h_mats[alpha] - oracle).max() < 1e-9

    def test_commuting_term_gives_zero_matrix(self):
        h = PauliOperator.from_terms(2, [(-0.7, "Z0"), (-0.7, "Z1")])
        rho = gibbs_density(h, 1.0)
        b = [PauliString.from_text("Z0", 2), PauliString.from_text("Z1", 2)]
        table = build_table(rho, masks(all_strings(2)))
        asm = MomentAssembler(b, [PauliOperator.from_terms(2, [(1.0, "Z0 Z1")])])
        coeffs = orthonormalize(asm.gram(table)).coeffs
        raw = coeffs.conj().T @ asm.commutator_tensor(table)[0] @ coeffs
        sym = 0.5 * (raw + raw.conj().T)
        assert np.abs(raw).max() < 1e-12
        assert np.abs(sym).max() < 1e-12


class TestModularCongruence:
    def test_reversed_products_are_gram_transpose_under_noise(self):
        # per-string noise on a self-adjoint basis: omega(b_j b_i) is read
        # from the same string as omega(b_i b_j), so the reversed products
        # are exactly G^T and Delta = C^dag conj(G) C with C = G^(-1/2);
        # modular positivity can then only be lost with Gram positivity
        cases = [
            (3, all_strings(3, include_identity=False), (1e-6, 1e-3)),
            (4, enumerate_geometric_k_local(4, 2), (1e-6, 1e-3, 1e-2, 1e-1)),
        ]
        outcomes = {"positive": 0, "gram_degenerate": 0}
        for n, b, sigmas in cases:
            asm = MomentAssembler(b, [])
            exact = build_table(gibbs_density(xxz_chain(n), 1.0), required_strings(b, []))
            for sigma in sigmas:
                for seed in (11, 12, 13):
                    table = add_noise(exact, sigma, seed)
                    gram = asm.gram(table)
                    # swapped[i, j] = omega(b_j b_i)
                    strings, phases = zip(*(multiply(bj, bi) for bi in b for bj in b))
                    swapped = np.array(phases) * table.lookup(*masks(strings))
                    swapped = swapped.reshape(gram.shape)
                    assert np.array_equal(swapped, gram.T)

                    try:
                        ortho = orthonormalize(gram)
                    except GramDegenerate:
                        outcomes["gram_degenerate"] += 1
                        continue
                    outcomes["positive"] += 1
                    # Delta_ij = omega(a_j a_i^*) = (C^dag R^T C)_ij with the reversed
                    # products R_kl = omega(b_k b_l^*) = swapped[l, k], read off the table
                    delta = delta_from_gram(gram, ortho.coeffs)
                    delta_rev = ortho.coeffs.conj().T @ swapped @ ortho.coeffs
                    delta_rev = 0.5 * (delta_rev + delta_rev.conj().T)
                    assert np.abs(delta - delta_rev).max() <= 1e-12 * np.abs(delta).max()
                    g_evals = ortho.gram_eigenvalues
                    bound = g_evals[-1] / g_evals[0]
                    assert scipy.linalg.eigvalsh(delta)[0] >= bound * (1 - 1e-9)
        assert outcomes["positive"] >= 1 and outcomes["gram_degenerate"] >= 1, outcomes


class TestW:
    def test_symmetric_terms_give_zero(self):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = [PauliOperator.from_terms(1, [(1.0, "Z0")])]
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        _, moments = asm.moment_set(table)
        assert np.abs(moments.w_matrix).max() < 1e-12

    def test_rank_one_positivity(self, rng):
        raw = rng.normal(size=(1, 5, 5)) + 1j * rng.normal(size=(1, 5, 5))
        w, spectrum, _ = build_w(raw)
        anti = raw[0] - raw[0].conj().T
        assert abs(w[0, 0].real - np.abs(anti) .ravel() @ np.abs(anti).ravel()) < 1e-10
        assert w[0, 0].real >= 0
        assert spectrum.min() >= 0

    def test_true_hamiltonian_in_kernel(self, rng):
        # exact data: the generating Hamiltonian direction annihilates W
        n = 3
        h, z, terms = random_k_local_hamiltonian(n, 2, rng, coeff_norm=0.8)
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(terms)
        asm = MomentAssembler(b, h_terms)
        rho = gibbs_density(h, 1.0)
        table = build_table(rho, required_strings(b, h_terms))
        _, moments = asm.moment_set(table)
        w_real = 0.5 * (moments.w_matrix + moments.w_matrix.conj()).real
        quad = z @ w_real @ z
        scale = max(1.0, np.abs(w_real).max()) * float(z @ z)
        assert quad <= 1e-16 * scale


class TestEpsilonW:
    def test_floor_branch(self):
        assert epsilon_w(0.0, 10**6) == pytest.approx(4e-9, rel=1e-12)

    def test_noise_branch(self):
        assert epsilon_w(1e-4, 10**4) == pytest.approx(4e-4, rel=1e-12)
        assert epsilon_w(1e-6, 10**4) == pytest.approx(4e-8, rel=1e-12)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            epsilon_w(0.1, -1)


class TestKernel:
    def test_zero_w_full_kernel(self):
        w = np.zeros((3, 3))
        _, evecs = scipy.linalg.eigh(w)
        kc, mats, exps = kernel_basis(
            np.zeros(3), evecs, 4e-9, np.array([1.0, 2.0, 3.0]), np.zeros((3, 2, 2))
        )
        assert kc.shape == (3, 3)
        assert np.abs(kc @ kc.T - np.eye(3)).max() < 1e-12

    def test_threshold_split(self):
        w = np.diag([1e-15, 1.0])
        spectrum = np.array([1e-15, 1.0])
        _, evecs = scipy.linalg.eigh(w)
        kc, mats, exps = kernel_basis(
            spectrum, evecs, 4e-9, np.array([0.5, 0.7]), np.zeros((2, 2, 2))
        )
        assert kc.shape == (1, 2)
        assert abs(abs(kc[0, 0]) - 1.0) < 1e-12
        assert abs(exps[0] - kc[0] @ np.array([0.5, 0.7])) < 1e-15

    def test_xxz_kernel_contains_truth(self, rng):
        # exact data at n=6: low-lying W spectrum separated by a gap, and
        # the true coefficient vector sits inside the kernel subspace
        n = 6
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        h = xxz_chain(n)
        rho = gibbs_density(h, 2.0)
        table = build_table(rho, required_strings(b, h_terms))
        _, moments = asm.moment_set(table)
        assert moments.q >= 1
        spectrum = moments.w_spectrum
        assert spectrum[moments.q - 1] < 1e-3 * max(spectrum[moments.q], 1e-30)
        z = np.array([h.coefficient(s).real for s in b])
        z /= np.linalg.norm(z)
        overlap = np.linalg.norm(moments.kernel_coeffs @ z)
        assert overlap >= 0.999


class TestBasisIndependence:
    def test_mixing_invariance(self, rng):
        # the outcome depends only on the span: transform the moment data by
        # an invertible recombination and compare the assembled pipeline
        n = 2
        _, _, b, h_terms, asm, rho, table = make_setup(n, 1.1, rng)
        gram = asm.gram(table)
        f_stack = asm.commutator_tensor(table)
        h_exps = asm.h_expectations(table)
        eps = 4e-9

        _, base = assemble_from_matrices(gram, f_stack, h_exps, eps)

        # a real recombination keeps the operators self-adjoint, so the
        # reversed products stay the transposed Gram matrix
        mix = rng.normal(size=(len(b), len(b)))
        gram_mixed = mix @ gram @ mix.T
        f_mixed = np.einsum("lk,skm,nm->sln", mix, f_stack, mix, optimize=True)
        _, mixed = assemble_from_matrices(gram_mixed, f_mixed, h_exps, eps)

        assert base.q == mixed.q
        # the compressed modular spectra agree (same span)
        s1 = np.sort(scipy.linalg.eigvalsh(base.delta))
        s2 = np.sort(scipy.linalg.eigvalsh(mixed.delta))
        assert np.abs(s1 - s2).max() < 1e-7

        from gibbslearn.sdp import SdpProblem, log_psd, solve

        sol1 = solve(SdpProblem(log_psd(base.delta)[0], base.h_tilde_mats, base.h_tilde_expectations))
        sol2 = solve(
            SdpProblem(log_psd(mixed.delta)[0], mixed.h_tilde_mats, mixed.h_tilde_expectations)
        )
        assert abs(sol1.mu_star - sol2.mu_star) < 1e-6
        assert abs(sol1.t_star - sol2.t_star) < 1e-6
        y1 = base.kernel_coeffs.T @ sol1.y_star
        y2 = mixed.kernel_coeffs.T @ sol2.y_star
        assert np.abs(y1 - y2).max() < 1e-6


class TestCommutatorCount:
    def test_structural_count(self):
        # single qubit: b = {X, Y, Z}, h = {Z}; Z commutes only with itself
        b = all_strings(1, include_identity=False)
        asm = MomentAssembler(b, [PauliOperator.from_terms(1, [(1.0, "Z0")])])
        # pairs (alpha=Z, b_j in {X, Y}) anticommute -> 2; times r = 3
        assert asm.commutator_term_count == 6


class TestExactAssembly:
    """The assembler entry by entry against the Pauli algebra, on every string at n=3."""

    @staticmethod
    def make_case(rng):
        n = 3
        b = all_strings(n, include_identity=False)
        bonds = [
            PauliOperator.from_terms(
                n, [(-1.0, f"X{i} X{i+1}"), (-0.7, f"Y{i} Y{i+1}"), (0.3, f"Z{i} Z{i+1}")]
            )
            for i in range(n - 1)
        ]
        z0 = PauliOperator.from_terms(n, [(0.4, "Z0")])
        x1y2 = PauliOperator.from_terms(n, [(1.0, "X1 Y2")])
        h_terms = [z0, bonds[0], x1y2, bonds[1]]
        asm = MomentAssembler(b, h_terms)
        h, _, _ = random_k_local_hamiltonian(n, 2, rng, coeff_norm=0.8)
        exact = build_table(gibbs_density(h, 1.0), required_strings(b, h_terms))
        return b, h_terms, asm, add_noise(exact, 1e-3, 5)

    def test_moments_match_pauli_expansion(self, rng):
        b, h_terms, asm, table = self.make_case(rng)

        def omega(p, op):
            """omega(p op) for a string p, one string of op at a time."""
            total = 0j
            for string, coeff in op.terms.items():
                product, phase = multiply(p, string)
                total += coeff * phase * table.lookup(*masks([product]))[0]
            return total

        ops = [PauliOperator.from_string(q) for q in b]
        raw = np.array([[omega(p, q) for q in ops] for p in b])
        gram = 0.5 * (raw + raw.conj().T)
        f_stack = np.array(
            [[[omega(bl, commutator(h, bk)) for bk in ops] for bl in b] for h in h_terms]
        )
        h_exps = np.array([omega(PauliString.identity(3), h).real for h in h_terms])

        assert np.abs(f_stack).max() > 0.1
        assert np.abs(asm.gram(table) - gram).max() <= 1e-14
        assert np.abs(asm.commutator_tensor(table) - f_stack).max() <= 1e-14
        assert np.abs(asm.h_expectations(table) - h_exps).max() <= 1e-14

    def test_commutator_term_count(self, rng):
        b, h_terms, asm, _ = self.make_case(rng)
        pairs = sum(
            any(not t.commutes_with(bj) for t in h.terms) for h in h_terms for bj in b
        )
        assert asm.commutator_term_count == len(b) * pairs


class TestSiteCount:
    def test_table_on_other_site_count(self):
        # the n=4 table holds every mask of the n=3 closure, so only the
        # site-count check keeps it from being read as a sub-chain
        asm = MomentAssembler(enumerate_geometric_k_local(3, 2), [])
        table = build_table(gibbs_density(xxz_chain(4), 1.0), masks(all_strings(4)))
        with pytest.raises(DimensionMismatch, match="table on 4 sites, assembler on 3"):
            asm.gram(table)
        with pytest.raises(DimensionMismatch):
            asm.moment_set(table)
