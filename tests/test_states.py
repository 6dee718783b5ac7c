import numpy as np
import pytest
import scipy.linalg

from gibbslearn import states
from gibbslearn.errors import BadTable, DimensionMismatch, IncompleteData
from gibbslearn.models import string_basis_operators, xxz_chain
from gibbslearn.moments import MomentAssembler
from gibbslearn.pauli import (
    PauliOperator,
    PauliString,
    all_strings,
    dense_matrix,
    enumerate_geometric_k_local,
    from_masks,
    masks,
    multiply,
    product_closure,
)
from gibbslearn.states import (
    ExpectationTable,
    add_noise,
    build_table,
    expectation,
    gibbs_density,
    read_tsv,
    required_strings,
    write_tsv,
)

from oracles import kron_operator, kron_string


def asymmetric_chain(n, seed=0):
    """Unequal XX/YY/ZZ bonds, random X and Z fields and one odd-Y term.

    No reflection of the chain maps it to itself, so a bit-order mistake
    between sites and basis indices changes its expectations.
    """
    rng = np.random.default_rng(seed)
    terms = [(0.4, "X0 Y1"), (-0.4, "Y0 X1")] if n > 1 else [(0.4, "Y0")]
    for k in range(n - 1):
        jx, jy, jz = rng.uniform(0.3, 1.5, size=3)
        terms += [(-jx, f"X{k} X{k + 1}"), (-jy, f"Y{k} Y{k + 1}"), (-jz, f"Z{k} Z{k + 1}")]
    for k in range(n):
        hx, hz = rng.normal(size=2)
        terms += [(hx, f"X{k}"), (hz, f"Z{k}")]
    return PauliOperator.from_terms(n, terms)


class TestGibbsDensity:
    def test_zero_hamiltonian_is_maximally_mixed(self):
        rho = gibbs_density(PauliOperator.zero(2), 3.0)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-14

    def test_two_level_tanh(self):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        assert abs(expectation(rho, PauliString.from_text("Z0", 1)) - np.tanh(1.0)) < 1e-12

    def test_against_expm_oracle(self):
        # independent route: scaling-and-squaring matrix exponential
        h = xxz_chain(4)
        t = 2.0
        rho = gibbs_density(h, t)
        dense = kron_operator(h)
        ref = scipy.linalg.expm(-dense / t)
        ref /= np.trace(ref)
        assert np.abs(rho.matrix - ref).max() < 1e-12

    def test_odd_y_term_against_expm_oracle(self):
        # X0 Y1 - Y0 X1 has an imaginary matrix, so h is diagonalized complex
        h = xxz_chain(3) + PauliOperator.from_terms(3, [(0.6, "X0 Y1"), (-0.6, "Y0 X1")])
        assert np.abs(dense_matrix(h).imag).max() > 0
        rho = gibbs_density(h, 1.5)
        ref = scipy.linalg.expm(-kron_operator(h) / 1.5)
        ref /= np.trace(ref)
        assert np.abs(rho.matrix - ref).max() < 1e-12
        assert np.abs(rho.matrix.imag).max() > 1e-3

    def test_real_hamiltonian_keeps_complex_dtypes(self):
        rho = gibbs_density(xxz_chain(4), 2.0)
        assert rho.matrix.dtype == rho.eigenvectors.dtype == np.complex128
        evals, evecs = rho.eigensystem()
        assert np.all(np.diff(evals) >= 0)
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.abs(rebuilt - rho.matrix).max() < 1e-14

    def test_commutes_with_hamiltonian(self):
        h = xxz_chain(3)
        rho = gibbs_density(h, 0.7)
        hd = dense_matrix(h)
        assert np.abs(rho.matrix @ hd - hd @ rho.matrix).max() < 1e-10

    def test_rejects_bad_input(self):
        h = PauliOperator.from_terms(1, [(1j, "X0")])
        with pytest.raises(ValueError):
            gibbs_density(h, 1.0)
        with pytest.raises(ValueError):
            gibbs_density(xxz_chain(2), -1.0)

    def test_scaling_gauge(self, rng):
        # (c*h, c*T) prepares the same state
        h = xxz_chain(3)
        rho1 = gibbs_density(h, 1.3)
        rho2 = gibbs_density(2.5 * h, 2.5 * 1.3)
        assert np.abs(rho1.matrix - rho2.matrix).max() < 1e-12

    def test_free_energy_minimality(self, rng):
        # the thermal state minimizes -T S + <h> against random perturbations
        for n in (2, 3):
            strings = all_strings(n, include_identity=False)
            coeffs = rng.normal(size=len(strings))
            coeffs /= 2.0 * np.linalg.norm(coeffs)
            h = PauliOperator(n, dict(zip(strings, coeffs)))
            t = 1.1
            rho = gibbs_density(h, t)
            hd = dense_matrix(h)

            def free_energy(mat):
                evals = scipy.linalg.eigvalsh(mat)
                evals = evals[evals > 1e-300]
                return t * float(np.sum(evals * np.log(evals))) + float(
                    np.trace(mat @ hd).real
                )

            base = free_energy(rho.matrix)
            dim = 1 << n
            for _ in range(100):
                shift = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                shift = shift + shift.conj().T
                cand = rho.matrix + 1e-3 * shift / np.abs(shift).max()
                evals = scipy.linalg.eigvalsh(cand)
                if evals.min() <= 1e-12:
                    continue
                cand /= np.trace(cand).real
                assert free_energy(cand) >= base - 1e-12


class TestExpectation:
    def test_maximally_mixed_kills_traceless(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        for s in all_strings(2, include_identity=False):
            assert abs(expectation(rho, s)) < 1e-14

    def test_diagonal_state_offdiagonal_string(self):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        assert abs(expectation(rho, PauliString.from_text("X0", 1))) < 1e-14

    def test_ferromagnetic_correlation_positive(self):
        rho = gibbs_density(xxz_chain(4), 2.0)
        value = expectation(rho, PauliString.from_text("X0 X1", 4))
        dense = kron_operator(PauliOperator.from_terms(4, [(1.0, "X0 X1")]))
        assert value > 0
        assert abs(value - np.trace(rho.matrix @ dense).real) < 1e-12

    def test_bounded_by_one(self, rng):
        rho = gibbs_density(xxz_chain(3), 0.8)
        for s in all_strings(3):
            assert expectation(rho, s) ** 2 <= 1 + 1e-12


def enumerate_closure(b, h_terms):
    """The required strings by explicit products, one string at a time."""
    terms = {t for op in h_terms for t in op.terms}
    out = {PauliString.identity(b[0].n)} | terms
    for p in b:
        for q in b:
            out.add(multiply(p, q)[0])
        for t in terms:
            pt = multiply(p, t)[0]
            for q in b:
                out.add(multiply(pt, q)[0])
    return out


class TestRequiredStrings:
    @pytest.mark.parametrize("n", [17, 20])
    def test_closure_above_sixteen_sites(self, n):
        # 1-local basis plus terms whose masks straddle bit 16
        b = enumerate_geometric_k_local(n, 1)
        straddling = [
            PauliOperator.from_terms(n, [(1.0, "X15 X16")]),
            PauliOperator.from_terms(n, [(1.0, "Z15 Y16")]),
            PauliOperator.from_terms(n, [(-0.5, "Y15 Z16"), (2.0, "Z15 X16")]),
        ]
        h = string_basis_operators(b) + straddling
        expect = enumerate_closure(b, h)
        got = required_strings(b, h)
        assert len(got) == len(expect) and set(got) == expect
        assert MomentAssembler(b, h).required_strings() == got

    def test_closure_site_limit(self):
        # the top mask bit is a key like any other; one site more is refused
        b = [PauliString.from_text(t, 64) for t in ("X63", "Y0", "Z31 Z32")]
        h = [PauliOperator.from_terms(64, [(1.0, "Y62 Z63")])]
        assert set(required_strings(b, h)) == enumerate_closure(b, h)
        too_big = [PauliString.from_text("X64", 65)]
        with pytest.raises(ValueError, match="at most 64 sites"):
            required_strings(too_big, [])
        with pytest.raises(ValueError, match="at most 64 sites"):
            MomentAssembler(too_big, [])

    def test_single_qubit_closure(self):
        b = [PauliString.from_text("X0", 1)]
        h = [PauliOperator.from_terms(1, [(1.0, "Z0")])]
        got = set(required_strings(b, h))
        expect = {PauliString.from_text(t, 1) for t in ("I", "Z0")}
        assert expect <= got <= {PauliString.from_text(t, 1) for t in ("I", "X0", "Y0", "Z0")}

    def test_identity_only(self):
        b = [PauliString.identity(2)]
        assert required_strings(b, []) == [PauliString.identity(2)]
        assert required_strings([], []) == []

    def test_closure_order(self):
        # distinct strings, in the closure's (x, z) mask order, on every call
        b = enumerate_geometric_k_local(5, 2)
        h = string_basis_operators(b)
        got = required_strings(b, h)
        closure = product_closure(b, b)
        assert got == from_masks(5, closure.x, closure.z) == required_strings(b, h)
        assert got == MomentAssembler(b, h).required_strings()
        keys = [(s.x, s.z) for s in got]
        assert keys == sorted(set(keys))

    def test_locality_of_products(self):
        from gibbslearn.pauli import enumerate_geometric_k_local

        # every required string is a product of three window-local strings,
        # so its support splits into at most three contiguous runs; from
        # seven sites on that is a strict subset of all strings
        for n, strict in ((4, False), (7, True)):
            b = enumerate_geometric_k_local(n, 2)
            h = [PauliOperator.from_string(s) for s in b]
            got = required_strings(b, h)
            if strict:
                assert len(got) < 4**n
            for s in got:
                if s.is_identity:
                    continue
                sites = s.support
                runs = 1 + sum(1 for a, b2 in zip(sites, sites[1:]) if b2 > a + 1)
                assert runs <= 3


def assert_matches_expectation(table, rho, strings):
    assert len(table.values) == len(set(strings))
    ref = [1.0 if s.is_identity else expectation(rho, s) for s in strings]
    assert np.abs(table.lookup(*masks(strings)) - ref).max() < 1e-14
    assert table.lookup(*masks([PauliString.identity(rho.n)])).tolist() == [1.0]


def assert_same_table(a, b):
    """Same strings in the same order, bit-identical values."""
    assert a.n == b.n
    for name in ("x", "z", "values"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


class TestBuildTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_string(self, n):
        rho = gibbs_density(asymmetric_chain(n), 0.8)
        strings = all_strings(n)
        assert_matches_expectation(build_table(rho, strings), rho, strings)

    def test_against_kron_oracle(self):
        # the Walsh-Hadamard route against literal tensor products
        rho = gibbs_density(asymmetric_chain(3, seed=1), 1.2)
        table = build_table(rho, all_strings(3))
        ref = [np.trace(rho.matrix @ kron_string(s)).real for s in all_strings(3)]
        assert np.abs(table.lookup(*masks(all_strings(3))) - ref).max() < 1e-14

    def test_two_local_closure_n6(self):
        rho = gibbs_density(asymmetric_chain(6, seed=2), 1.0)
        b = enumerate_geometric_k_local(6, 2)
        strings = required_strings(b, string_basis_operators(b))
        assert_matches_expectation(build_table(rho, strings), rho, strings)

    def test_block_boundary(self, monkeypatch):
        # 3 x-masks per gathered block: the distinct x-masks do not fill the last block
        n = 4
        rho = gibbs_density(asymmetric_chain(n, seed=3), 1.0)
        strings = all_strings(n)
        whole = build_table(rho, strings)
        monkeypatch.setattr(states, "GATHER_ENTRIES", 3 << n)
        blocked = build_table(rho, strings)
        assert (1 << n) % 3 != 0
        assert_same_table(blocked, whole)
        assert_matches_expectation(blocked, rho, strings)

    def test_any_input_order(self):
        rho = gibbs_density(asymmetric_chain(3), 1.0)
        strings = all_strings(3)
        shuffled = list(strings)
        np.random.default_rng(5).shuffle(shuffled)
        table = build_table(rho, shuffled)
        assert from_masks(3, table.x, table.z) == strings
        assert_same_table(table, build_table(rho, set(strings)))

    def test_rejects_other_site_count(self):
        rho = gibbs_density(xxz_chain(3), 1.0)
        with pytest.raises(DimensionMismatch):
            build_table(rho, [PauliString.from_text("X0", 2)])


class TestTable:
    def test_site_limit(self):
        ExpectationTable(64, [1 << 63], [0], [0.5])
        with pytest.raises(ValueError, match="at most 64 sites"):
            ExpectationTable(65, [], [], [])
        with pytest.raises(ValueError, match="outside the table's 3 sites"):
            ExpectationTable(3, [1 << 3], [0], [0.5])

    def test_build_and_lookup(self):
        rho = gibbs_density(xxz_chain(3), 1.0)
        strings = all_strings(3)
        table = build_table(rho, set(strings))
        # any query order, repeats included, reads the entry each string equals
        query = [strings[i] for i in np.random.default_rng(1).integers(0, len(strings), 200)]
        expect = [1.0 if s.is_identity else expectation(rho, s) for s in query]
        assert np.abs(table.lookup(*masks(query)) - expect).max() < 1e-14
        assert table.lookup(*masks([PauliString.identity(3)])).tolist() == [1.0]
        # Python ints are read as uint64: these two masks are one float64
        top = ExpectationTable(64, [1 << 62, (1 << 62) | 1], [0, 0], [0.5, 0.25])
        assert top.lookup([(1 << 62) | 1, 1 << 62], [0, 0]).tolist() == [0.25, 0.5]
        with pytest.raises(IncompleteData, match="'Y0 X2'"):
            ExpectationTable(3, [], [], []).lookup(*masks([PauliString.from_text("Y0 X2", 3)]))

    def test_rejects_duplicate(self, tmp_path):
        x, z = masks([PauliString.from_text(t, 2) for t in ("X0 X1", "Z0", "X1 X0")])
        with pytest.raises(ValueError, match="X0 X1 is listed twice"):
            ExpectationTable(2, x, z, [0.1, 0.2, 0.3])
        path = tmp_path / "table.tsv"
        path.write_text("# n = 2\nX0 X1\t0.1\nZ0\t0.2\nX1 X0\t0.3\n")
        with pytest.raises(BadTable, match="X0 X1 is listed twice"):
            ExpectationTable.load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, tmp_path, bad):
        x, z = masks([PauliString.from_text(t, 2) for t in ("I", "Z0", "Y1")])
        with pytest.raises(ValueError, match=f"Y1 has the value {bad}"):
            ExpectationTable(2, x, z, [1.0, 0.2, float(bad)])
        path = tmp_path / "table.tsv"
        path.write_text(f"# n = 2\nI\t1.0\nZ0\t0.2\nY1\t{bad}\n")
        with pytest.raises(BadTable, match=f"Y1 has the value {bad}"):
            ExpectationTable.load(path)

    def test_identity_must_be_one(self):
        with pytest.raises(ValueError, match="I has the value 0.5, not 1"):
            ExpectationTable(2, [0], [0], [0.5])

    def test_roundtrip(self, tmp_path, rng):
        rho = gibbs_density(xxz_chain(3), 1.0)
        table = build_table(rho, all_strings(3))
        noisy = add_noise(table, 1e-3, 77)
        path = tmp_path / "table.tsv"
        noisy.save(path)
        back = ExpectationTable.load(path)
        assert back.noise_sigma == noisy.noise_sigma
        assert back.seed == noisy.seed
        assert_same_table(back, noisy)  # exact repr round-trip
        back.save(tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_held_in_canonical_order(self, tmp_path):
        # a table built from shuffled arrays saves and draws noise exactly
        # like one built in canonical order
        n = 4
        basis = enumerate_geometric_k_local(n, 2)
        needed = required_strings(basis, string_basis_operators(basis))
        strings = sorted(needed, key=PauliString.sort_key)
        rho = gibbs_density(xxz_chain(n), 1.0)
        x, z = masks(strings)
        exact = np.array([1.0 if s.is_identity else expectation(rho, s) for s in strings])
        order = np.random.default_rng(4).permutation(len(strings))
        assert np.any(order != np.arange(len(strings)))
        a = ExpectationTable(n, x, z, exact)
        b = ExpectationTable(n, x[order], z[order], exact[order])
        assert_same_table(a, b)
        assert from_masks(n, a.x, a.z) == strings
        a.save(tmp_path / "a.tsv")
        b.save(tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        noisy_a, noisy_b = add_noise(a, 1e-3, 9), add_noise(b, 1e-3, 9)
        assert_same_table(noisy_a, noisy_b)
        # one draw per entry in that order; the identity's draw is discarded
        draws = np.random.default_rng(9).normal(0.0, 1e-3, len(strings))
        assert strings[0].is_identity and noisy_a.values[0] == 1.0
        assert np.array_equal(noisy_a.values[1:], exact[1:] + draws[1:])

    def test_load_needs_n_header_first(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("# seed = 1\nX0\t0.5\n# n = 1\n")
        with pytest.raises(BadTable, match="after data"):
            ExpectationTable.load(path)
        path.write_text("# seed = 1\nX0\t0.5\n")
        with pytest.raises(BadTable, match="no 'n' header"):
            ExpectationTable.load(path)

    @pytest.mark.parametrize(
        "row, message",
        [("Q0\t0.5", "cannot parse Pauli token 'Q0'"), ("X0\thalf", "half"),
         ("X2\t0.5", "site 2 outside")],
    )
    def test_load_rejects_bad_row(self, tmp_path, row, message):
        path = tmp_path / "table.tsv"
        path.write_text(f"# n = 2\nZ0\t0.25\n{row}\n")
        with pytest.raises(BadTable, match=message):
            ExpectationTable.load(path)

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_tsv(path, {"n": 2, "seed": ""}, [("X0 Z1", "0.25"), ("I", "1.0")])
        assert path.read_text() == "# n = 2\n# seed = \nX0 Z1\t0.25\nI\t1.0\n"
        assert read_tsv(path) == ({"n": "2", "seed": ""}, [("X0 Z1", "0.25"), ("I", "1.0")])


class TestNoise:
    def test_zero_sigma_identity(self):
        rho = gibbs_density(xxz_chain(3), 1.0)
        table = build_table(rho, all_strings(3))
        assert_same_table(add_noise(table, 0.0, 123), table)

    def test_determinism(self):
        rho = gibbs_density(xxz_chain(3), 1.0)
        table = build_table(rho, all_strings(3))
        a = add_noise(table, 1e-3, 5)
        b = add_noise(table, 1e-3, 5)
        assert_same_table(a, b)
        c = add_noise(table, 1e-3, 6)
        assert not np.array_equal(c.values, a.values)

    def test_identity_untouched_and_no_clamping(self):
        rho = gibbs_density(xxz_chain(2), 1.0)
        table = build_table(rho, all_strings(2))
        noisy = add_noise(table, 50.0, 3)
        identity = (noisy.x | noisy.z) == 0
        assert noisy.values[identity].tolist() == [1.0]
        assert np.any(np.abs(noisy.values[~identity]) > 1)

    def test_negative_sigma_rejected(self):
        rho = gibbs_density(xxz_chain(2), 1.0)
        table = build_table(rho, all_strings(2))
        with pytest.raises(ValueError):
            add_noise(table, -0.1, 0)

    def test_empirical_sigma(self):
        # statistical self-test across many entries
        n = 7
        strings = [PauliString.identity(n)] + all_strings(n, include_identity=False)[:12000]
        values = np.zeros(len(strings))
        values[0] = 1.0
        table = ExpectationTable(n, *masks(strings), values)
        sigma = 1e-3
        noisy = add_noise(table, sigma, 11)
        draws = noisy.values[(noisy.x | noisy.z) != 0]
        assert abs(draws.std() - sigma) / sigma < 0.05

    def test_variance_composition(self):
        rho = gibbs_density(xxz_chain(2), 1.0)
        table = build_table(rho, all_strings(2))
        twice = add_noise(add_noise(table, 3e-4, 1), 4e-4, 2)
        assert abs(twice.noise_sigma - 5e-4) < 1e-18
