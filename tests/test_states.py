import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from gibbslearn import states
from gibbslearn.errors import BadTable, IncompleteData
from gibbslearn.models import random_k_local_hamiltonian, string_basis_operators, xxz_chain
from gibbslearn.moments import MomentAssembler
from gibbslearn.pauli import (
    PauliOperator,
    PauliString,
    all_strings,
    dense_matrix,
    enumerate_geometric_k_local,
    masks,
)
from gibbslearn.states import (
    ExpectationTable,
    add_noise,
    build_table,
    expectation,
    gibbs_density,
    read_products,
    read_tsv,
    required_strings,
    write_tsv,
)

from oracles import (
    keyed_normal,
    kron_operator,
    kron_string,
    letters_sort_key,
    mask_strings,
    read_strings,
)


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
        assert np.abs(rho - np.eye(4) / 4).max() < 1e-14

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
        assert np.abs(rho - ref).max() < 1e-12

    def test_odd_y_term_against_expm_oracle(self):
        # X0 Y1 - Y0 X1 has an imaginary matrix, so h is diagonalized complex;
        # it conserves the total Z, so h splits into n + 1 sectors
        for n in (3, 5):
            h = xxz_chain(n) + PauliOperator.from_terms(n, [(0.6, "X0 Y1"), (-0.6, "Y0 X1")])
            assert np.abs(dense_matrix(h).imag).max() > 0
            assert len(states._sectors(dense_matrix(h))) == n + 1
            rho = gibbs_density(h, 1.5)
            ref = scipy.linalg.expm(-kron_operator(h) / 1.5)
            ref /= np.trace(ref)
            assert np.abs(rho - ref).max() < 1e-12
            assert np.abs(rho.imag).max() > 1e-3

    def test_diagonal_hamiltonian_boltzmann_weights(self):
        # Z fields and a Z0 Z2 coupling: rho is diag(exp(-E/T)) / Z over the 2^n spin configurations
        fields, coupling, t = [0.7, -0.3, 1.1, 0.2], -0.9, 0.8
        terms = [(f, f"Z{k}") for k, f in enumerate(fields)] + [(coupling, "Z0 Z2")]
        rho = gibbs_density(PauliOperator.from_terms(4, terms), t)
        # kron order: site 0 is the most significant index bit, |0> has Z = +1
        energies = np.array([
            np.dot(fields, spins) + coupling * spins[0] * spins[2]
            for spins in itertools.product((1, -1), repeat=4)
        ])
        weights = np.exp(-energies / t)
        assert np.abs(rho - np.diag(weights / weights.sum())).max() < 1e-15

    @pytest.mark.parametrize("t", [0.05, 2e-4])
    def test_low_temperature_against_shifted_expm(self, t):
        # Energies are shifted by the global ground energy; at T=2e-4 every
        # sector but the ground state's (three up spins) underflows to zero.
        h = xxz_chain(6)
        dense = kron_operator(h)
        ground = scipy.linalg.eigvalsh(dense)[0]
        ref = scipy.linalg.expm(-(dense - ground * np.eye(64)) / t)
        ref /= np.trace(ref)
        rho = gibbs_density(h, t)
        assert not np.isnan(rho).any()
        assert abs(np.trace(rho) - 1.0) < 1e-13
        assert np.abs(rho - ref).max() < 1e-13
        if t < 1e-3:
            ups = np.bitwise_count(np.arange(64))
            assert (rho[ups != 3] == 0).all()

    def test_sectors_against_dense_eigh(self):
        # one dense diagonalization of the whole chain as the reference
        h, t = xxz_chain(8), 1.3
        energies, evecs = scipy.linalg.eigh(kron_operator(h))
        weights = np.exp(-(energies - energies[0]) / t)
        ref = (evecs * (weights / weights.sum())) @ evecs.conj().T
        assert np.abs(gibbs_density(h, t) - ref).max() < 1e-14

    def test_real_hamiltonian_keeps_complex_dtypes(self):
        rho = gibbs_density(xxz_chain(4), 2.0)
        evals, evecs = scipy.linalg.eigh(rho)
        assert rho.dtype == evecs.dtype == np.complex128
        assert np.all(np.diff(evals) >= 0)
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.abs(rebuilt - rho).max() < 1e-14

    def test_commutes_with_hamiltonian(self):
        h = xxz_chain(3)
        rho = gibbs_density(h, 0.7)
        hd = dense_matrix(h)
        assert np.abs(rho @ hd - hd @ rho).max() < 1e-10

    def test_rejects_bad_input(self):
        h = PauliOperator.from_terms(1, [(1j, "X0")])
        with pytest.raises(ValueError):
            gibbs_density(h, 1.0)
        for temperature in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive"):
                gibbs_density(xxz_chain(2), temperature)

    def test_scaling_gauge(self, rng):
        # (c*h, c*T) prepares the same state
        h = xxz_chain(3)
        rho1 = gibbs_density(h, 1.3)
        rho2 = gibbs_density(2.5 * h, 2.5 * 1.3)
        assert np.abs(rho1 - rho2).max() < 1e-12

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

            base = free_energy(rho)
            dim = 1 << n
            for _ in range(100):
                shift = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                shift = shift + shift.conj().T
                cand = rho + 1e-3 * shift / np.abs(shift).max()
                evals = scipy.linalg.eigvalsh(cand)
                if evals.min() <= 1e-12:
                    continue
                cand /= np.trace(cand).real
                assert free_energy(cand) >= base - 1e-12


class TestSectors:
    def test_xxz_magnetization_sectors(self):
        sectors = states._sectors(dense_matrix(xxz_chain(6)))
        assert sorted(map(len, sectors)) == sorted(math.comb(6, k) for k in range(7))
        for idx in sectors:
            ups = np.bitwise_count(idx)
            assert (ups == ups[0]).all()  # each sector holds one magnetization
            assert (np.diff(idx) > 0).all()

    def test_generic_chain_is_one_sector(self):
        h, _, _ = random_k_local_hamiltonian(6, 2, np.random.default_rng(3))
        sectors = states._sectors(dense_matrix(h))
        assert len(sectors) == 1
        assert (sectors[0] == np.arange(64)).all()

    @pytest.mark.parametrize(
        "h",
        [PauliOperator.zero(6), PauliOperator.from_terms(6, [(0.4, "Z0"), (-1.0, "Z2 Z5")])],
        ids=["zero", "z-only"],
    )
    def test_diagonal_operator_has_one_state_sectors(self, h):
        sectors = states._sectors(dense_matrix(h))
        assert [idx.tolist() for idx in sectors] == [[i] for i in range(64)]

    def test_interleaved_components_come_in_order_of_least_index(self):
        # gibbs_density sums the sector weights in this order, so rho's bits depend on it
        m = np.zeros((6, 6))
        for i, j in ((0, 3), (1, 4), (4, 5)):
            m[i, j] = m[j, i] = 1.0
        assert [idx.tolist() for idx in states._sectors(m)] == [[0, 3], [1, 4, 5], [2]]

    def test_scrambled_path_is_one_sector(self):
        # the least label has to cross all 200 indices of the path
        path = np.random.default_rng(5).permutation(200)
        m = np.zeros((200, 200))
        m[path[:-1], path[1:]] = m[path[1:], path[:-1]] = 1.0
        sectors = states._sectors(m)
        assert len(sectors) == 1 and (sectors[0] == np.arange(200)).all()


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
        assert abs(value - np.trace(rho @ dense).real) < 1e-12

    def test_bounded_by_one(self, rng):
        rho = gibbs_density(xxz_chain(3), 0.8)
        for s in all_strings(3):
            assert expectation(rho, s) ** 2 <= 1 + 1e-12


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
        expect = set.union(*read_strings(b, h))
        got = mask_strings(n, *required_strings(b, h))
        assert len(got) == len(expect) and set(got) == expect
        # the assembler finds every string it reads in a table of these rows
        x, z = required_strings(b, h)
        table = ExpectationTable(n, x, z, ((x | z) == 0).astype(float))
        asm = MomentAssembler(b, h)
        _, factors, _ = asm.matrices(table)
        assert factors.shape == (len(h), len(b), asm.columns.shape[1])

    def test_closure_site_limit(self):
        # the top mask bit is a key like any other; one site more is refused
        b = [PauliString.from_text(t, 64) for t in ("X63", "Y0", "Z31 Z32")]
        h = [PauliOperator.from_terms(64, [(1.0, "Y62 Z63")])]
        assert set(mask_strings(64, *required_strings(b, h))) == set.union(*read_strings(b, h))
        too_big = [PauliString.from_text("X64", 65)]
        with pytest.raises(ValueError, match="at most 64 sites"):
            required_strings(too_big, [])
        with pytest.raises(ValueError, match="at most 64 sites"):
            MomentAssembler(too_big, [])

    @pytest.mark.parametrize("terms", ["strings", "multi"])
    def test_assembler_reads_the_required_strings(self, terms):
        # one closure: the assembler publishes the masks a table must hold
        b = enumerate_geometric_k_local(6, 2)
        h = string_basis_operators(b) if terms == "strings" else [
            PauliOperator.from_terms(6, [(-1.0, "X0 X1"), (0.5, "Y1 Z2"), (2.0, "Z3")]),
            PauliOperator.from_terms(6, [(0.3, "X4 Y5"), (-0.7, "Z0 Z5"), (1.2, "Y2 X3 Y4")]),
        ]
        assert_same_masks(MomentAssembler(b, h).strings, required_strings(b, h))

    @pytest.mark.parametrize("n, rows", [(6, 2530), (10, 16582)])
    def test_read_set_size(self, n, rows):
        # the 2-local string basis reads 2,530 of 4,096 strings at n=6 and
        # 16,582 of the 73,984 in the closure of all triples at n=10
        b = enumerate_geometric_k_local(n, 2)
        assert len(required_strings(b, string_basis_operators(b))[0]) == rows

    def test_single_qubit_closure(self):
        b = [PauliString.from_text("X0", 1)]
        h = [PauliOperator.from_terms(1, [(1.0, "Z0")])]
        got = set(mask_strings(1, *required_strings(b, h)))
        expect = {PauliString.from_text(t, 1) for t in ("I", "Z0")}
        assert expect <= got <= {PauliString.from_text(t, 1) for t in ("I", "X0", "Y0", "Z0")}

    def test_identity_only(self):
        b = [PauliString.identity(2)]
        assert_same_masks(required_strings(b, []), masks([PauliString.identity(2)]))
        assert_same_masks(required_strings([], []), masks([]))

    def test_closure_order(self):
        # distinct strings, in the closure's (x, z) mask order, on every call
        b = enumerate_geometric_k_local(5, 2)
        h = string_basis_operators(b)
        got = required_strings(b, h)
        assert_same_masks(got, required_strings(b, h))
        keys = list(zip(*(m.tolist() for m in got)))
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("terms", [11, 0])
    def test_read_products_index_maps(self, rng, terms):
        # each index map gives back the masks of its products, with or without terms
        xb, zb = rng.integers(0, 1 << 8, size=(2, 9), dtype=np.uint64)
        xt, zt = rng.integers(0, 1 << 8, size=(2, terms), dtype=np.uint64)
        (u, k), (x, z), (pair, triple, term) = read_products(xb, zb, xt, zt)
        assert np.array_equal(x[pair], xb[:, None] ^ xb)
        assert np.array_equal(z[pair], zb[:, None] ^ zb)
        assert np.array_equal(x[triple], xb ^ xt[u, None] ^ xb[k, None])
        assert np.array_equal(z[triple], zb ^ zt[u, None] ^ zb[k, None])
        assert np.array_equal(x[term], xt) and np.array_equal(z[term], zt)
        assert triple.shape == (len(u), len(xb)) and term.shape == (terms,)
        anticommuting = [
            (i, j)
            for i in range(terms)
            for j in range(len(xb))
            if not PauliString(8, int(xt[i]), int(zt[i])).commutes_with(
                PauliString(8, int(xb[j]), int(zb[j]))
            )
        ]
        assert list(zip(u.tolist(), k.tolist())) == anticommuting
        # distinct, sorted by (x, z), and each one some product
        keys = list(zip(x.tolist(), z.tolist()))
        assert keys == sorted(set(keys))
        hit = np.concatenate([pair.ravel(), triple.ravel(), term])
        assert set(hit.tolist()) == set(range(len(x)))

    def test_locality_of_products(self):
        from gibbslearn.pauli import enumerate_geometric_k_local

        # every required string is a product of three window-local strings,
        # so its support splits into at most three contiguous runs; from
        # seven sites on that is a strict subset of all strings
        for n, strict in ((4, False), (7, True)):
            b = enumerate_geometric_k_local(n, 2)
            h = [PauliOperator.from_string(s) for s in b]
            got = mask_strings(n, *required_strings(b, h))
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
    assert table.lookup(*masks([PauliString.identity(table.n)])).tolist() == [1.0]


def assert_same_masks(a, b):
    """Two (x, z) pairs of uint64 mask arrays hold the same strings in the same order."""
    for got, want in zip(a, b, strict=True):
        assert got.dtype == want.dtype == np.uint64 and np.array_equal(got, want)


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
        assert_matches_expectation(build_table(rho, masks(strings)), rho, strings)

    def test_against_kron_oracle(self):
        # the Walsh-Hadamard route against literal tensor products
        rho = gibbs_density(asymmetric_chain(3, seed=1), 1.2)
        table = build_table(rho, masks(all_strings(3)))
        ref = [np.trace(rho @ kron_string(s)).real for s in all_strings(3)]
        assert np.abs(table.lookup(*masks(all_strings(3))) - ref).max() < 1e-14

    def test_two_local_closure_n6(self):
        rho = gibbs_density(asymmetric_chain(6, seed=2), 1.0)
        b = enumerate_geometric_k_local(6, 2)
        needed = required_strings(b, string_basis_operators(b))
        assert_matches_expectation(build_table(rho, needed), rho, mask_strings(6, *needed))

    def test_block_boundary(self, monkeypatch):
        # 3 x-masks per gathered block: the distinct x-masks do not fill the last block
        n = 4
        rho = gibbs_density(asymmetric_chain(n, seed=3), 1.0)
        strings = all_strings(n)
        whole = build_table(rho, masks(strings))
        monkeypatch.setattr(states, "GATHER_ENTRIES", 3 << n)
        blocked = build_table(rho, masks(strings))
        assert (1 << n) % 3 != 0
        assert_same_table(blocked, whole)
        assert_matches_expectation(blocked, rho, strings)

    def test_any_input_order(self):
        rho = gibbs_density(asymmetric_chain(3), 1.0)
        strings = all_strings(3)
        shuffled = list(strings)
        np.random.default_rng(5).shuffle(shuffled)
        table = build_table(rho, masks(shuffled))
        assert mask_strings(3, table.x, table.z) == strings
        assert_same_table(table, build_table(rho, masks(list(set(strings)))))

    def test_rejects_mask_outside_sites(self):
        # a mask pair carries no site count: the table constructor checks it
        rho = gibbs_density(xxz_chain(3), 1.0)
        outside = masks([PauliString.from_text(t, 4) for t in ("Z0", "X3")])
        with pytest.raises(ValueError, match="outside the table's 3 sites"):
            build_table(rho, outside)


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
        table = build_table(rho, masks(list(set(strings))))
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
        table = build_table(rho, masks(all_strings(3)))
        noisy = add_noise(table, 1e-3, 77)
        path = tmp_path / "table.tsv"
        noisy.save(path)
        back = ExpectationTable.load(path)
        assert back.noise_sigma == noisy.noise_sigma
        assert back.seed == noisy.seed
        assert_same_table(back, noisy)  # exact repr round-trip
        back.save(tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_numpy_scalar_header_roundtrip(self, tmp_path):
        # a numpy noise level and seed are held, saved and loaded as Python numbers
        table = ExpectationTable(2, [0, 1], [0, 2], [1.0, 0.25], np.float64(1e-6), np.int64(7))
        assert type(table.noise_sigma) is float and type(table.seed) is int
        table.save(tmp_path / "t.tsv")
        assert "# noise_sigma = 1e-06\n# seed = 7\n" in (tmp_path / "t.tsv").read_text()
        back = ExpectationTable.load(tmp_path / "t.tsv")
        assert (back.noise_sigma, back.seed) == (1e-6, 7)
        assert_same_table(back, table)

    @pytest.mark.parametrize("seed", [3.5, -1, math.inf, math.nan])
    def test_seed_must_be_a_nonnegative_whole_number(self, seed):
        with pytest.raises(ValueError, match="must be a nonnegative whole number"):
            ExpectationTable(1, [0], [0], [1.0], 1e-3, seed)

    def test_held_in_canonical_order(self, tmp_path):
        # a table built from shuffled arrays saves and draws noise exactly
        # like one built in canonical order
        n = 4
        basis = enumerate_geometric_k_local(n, 2)
        needed = mask_strings(n, *required_strings(basis, string_basis_operators(basis)))
        strings = sorted(needed, key=letters_sort_key)
        rho = gibbs_density(xxz_chain(n), 1.0)
        x, z = masks(strings)
        exact = np.array([1.0 if s.is_identity else expectation(rho, s) for s in strings])
        order = np.random.default_rng(4).permutation(len(strings))
        assert np.any(order != np.arange(len(strings)))
        a = ExpectationTable(n, x, z, exact)
        b = ExpectationTable(n, x[order], z[order], exact[order])
        assert_same_table(a, b)
        assert mask_strings(n, a.x, a.z) == strings
        a.save(tmp_path / "a.tsv")
        b.save(tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        noisy_a, noisy_b = add_noise(a, 1e-3, 9), add_noise(b, 1e-3, 9)
        assert_same_table(noisy_a, noisy_b)
        # each entry's draw is keyed by its string; the identity stays 1
        keys = np.random.SeedSequence(9).generate_state(2, np.uint64)
        draws = np.array([keyed_normal(keys, s.x, s.z) for s in strings])
        assert strings[0].is_identity and noisy_a.values[0] == 1.0
        assert np.allclose(noisy_a.values[1:], exact[1:] + 1e-3 * draws[1:], rtol=0, atol=1e-15)

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
        table = build_table(rho, masks(all_strings(3)))
        assert_same_table(add_noise(table, 0.0, 123), table)

    def test_determinism(self):
        rho = gibbs_density(xxz_chain(3), 1.0)
        table = build_table(rho, masks(all_strings(3)))
        a = add_noise(table, 1e-3, 5)
        b = add_noise(table, 1e-3, 5)
        assert_same_table(a, b)
        c = add_noise(table, 1e-3, 6)
        assert not np.array_equal(c.values, a.values)

    def test_identity_untouched_and_no_clamping(self):
        rho = gibbs_density(xxz_chain(2), 1.0)
        table = build_table(rho, masks(all_strings(2)))
        noisy = add_noise(table, 50.0, 3)
        identity = (noisy.x | noisy.z) == 0
        assert noisy.values[identity].tolist() == [1.0]
        assert np.any(np.abs(noisy.values[~identity]) > 1)

    def test_negative_sigma_rejected(self):
        rho = gibbs_density(xxz_chain(2), 1.0)
        table = build_table(rho, masks(all_strings(2)))
        with pytest.raises(ValueError):
            add_noise(table, -0.1, 0)

    def test_empirical_sigma(self):
        # statistical self-test across every string on seven sites
        n = 7
        x, z = masks(all_strings(n))
        table = ExpectationTable(n, x, z, ((x | z) == 0).astype(float))
        sigma = 1e-3
        draws = add_noise(table, sigma, 11).values[1:] / sigma
        other = add_noise(table, sigma, 12).values[1:] / sigma
        limit = 5 / np.sqrt(len(draws))  # five standard errors of a mean or a correlation
        assert abs(draws.mean()) < limit
        assert abs(draws.std() - 1) < 0.05
        assert abs(np.mean(draws**4) / np.mean(draws**2) ** 2 - 3) < 5 * np.sqrt(24 / len(draws))
        # neighbouring masks, in canonical order and in mask order, and two seeds
        by_mask = draws[np.lexsort((z[1:], x[1:]))]
        for a, b in ((draws[:-1], draws[1:]), (by_mask[:-1], by_mask[1:]), (draws, other)):
            assert abs(np.corrcoef(a, b)[0, 1]) < limit

    def test_subset_and_permutation(self):
        # a string's noisy value does not depend on which other rows the table holds
        n = 7
        x, z = masks(all_strings(n))
        values = np.random.default_rng(0).uniform(-1, 1, len(x))
        values[0] = 1.0
        full = add_noise(ExpectationTable(n, x, z, values), 1e-3, np.random.SeedSequence(4))
        rng = np.random.default_rng(1)
        subset = np.sort(rng.choice(len(x), 3000, replace=False))
        permuted = rng.permutation(len(x))
        for rows in (subset, permuted):
            part = ExpectationTable(n, x[rows], z[rows], values[rows])
            noisy = add_noise(part, 1e-3, np.random.SeedSequence(4))
            assert np.array_equal(noisy.values, full.lookup(noisy.x, noisy.z))

    def test_integral_seed_recorded(self, tmp_path):
        # a numpy integer seed is recorded and, with the masks, reproduces every draw
        table = build_table(gibbs_density(xxz_chain(3), 1.0), masks(all_strings(3)))
        noisy = add_noise(table, 1e-3, np.int64(5))
        assert noisy.seed == 5 and type(noisy.seed) is int
        assert_same_table(noisy, add_noise(table, 1e-3, 5))
        noisy.save(tmp_path / "t.tsv")
        back = ExpectationTable.load(tmp_path / "t.tsv")
        assert_same_table(add_noise(table, 1e-3, back.seed), noisy)
        assert add_noise(table, 1e-3, np.random.SeedSequence(5)).seed is None

    def test_variance_composition(self):
        rho = gibbs_density(xxz_chain(2), 1.0)
        table = build_table(rho, masks(all_strings(2)))
        twice = add_noise(add_noise(table, 3e-4, 1), 4e-4, 2)
        assert abs(twice.noise_sigma - 5e-4) < 1e-18
