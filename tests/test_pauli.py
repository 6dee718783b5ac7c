import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslearn.errors import DenseLimitExceeded, DimensionMismatch
from gibbslearn.models import string_basis_operators, xxz_chain
from gibbslearn.pauli import (
    PauliOperator,
    PauliString,
    all_strings,
    commutator,
    dense_matrix,
    enumerate_geometric_k_local,
    mask_order,
    masks,
    multiply,
    parse_texts,
    phase_exponent,
    texts,
    unique_masks,
)
from gibbslearn.states import required_strings

from oracles import (
    kron_operator,
    kron_string,
    letters_sort_key,
    letters_text,
    mask_sort_key,
    mask_strings,
)


@st.composite
def pauli_strings(draw, n=None, max_n=4):
    sites = n if n is not None else draw(st.integers(1, max_n))
    x = draw(st.integers(0, 2**sites - 1))
    z = draw(st.integers(0, 2**sites - 1))
    return PauliString(sites, x, z)


def random_operator(n, rng, terms=4):
    strings = all_strings(n, include_identity=False)
    picks = rng.choice(len(strings), size=min(terms, len(strings)), replace=False)
    coeffs = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
    return PauliOperator(n, {strings[i]: c for i, c in zip(picks, coeffs)})


class TestMultiply:
    def test_involution(self):
        x = PauliString.from_text("X0", 1)
        r, phase = multiply(x, x)
        assert r.is_identity and phase == 1

    def test_xy_is_iz(self):
        x = PauliString.from_text("X0", 1)
        y = PauliString.from_text("Y0", 1)
        r, phase = multiply(x, y)
        assert r == PauliString.from_text("Z0", 1) and phase == 1j

    def test_disjoint_supports(self):
        p = PauliString.from_text("X0", 2)
        q = PauliString.from_text("Z1", 2)
        r, phase = multiply(p, q)
        assert r == PauliString.from_text("X0 Z1", 2) and phase == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply(PauliString.from_text("X0", 1), PauliString.from_text("X0", 2))

    @given(pauli_strings(n=3), pauli_strings(n=3))
    def test_against_dense(self, p, q):
        r, phase = multiply(p, q)
        assert np.abs(kron_string(p) @ kron_string(q) - phase * kron_string(r)).max() < 1e-12

    @given(pauli_strings(n=3), pauli_strings(n=3), pauli_strings(n=3))
    def test_associative(self, p, q, r):
        ab, ph_ab = multiply(p, q)
        left, ph_left = multiply(ab, r)
        bc, ph_bc = multiply(q, r)
        right, ph_right = multiply(p, bc)
        assert left == right
        assert ph_ab * ph_left == ph_bc * ph_right

    @given(pauli_strings(n=4), pauli_strings(n=4))
    def test_phase_pairing(self, p, q):
        # reversing the product conjugates the phase, so the phase squared
        # is +1 when the strings commute (even overlap of clashing letters)
        # and -1 when they anticommute (odd overlap)
        _, ph_pq = multiply(p, q)
        _, ph_qp = multiply(q, p)
        assert ph_qp == ph_pq.conjugate()
        overlap_even = p.commutes_with(q)
        assert ph_pq**2 == (1 if overlap_even else -1)


class TestPhaseExponent:
    def test_arrays_match_scalar_calls(self, rng):
        # masks on all 64 sites, so the top bit is set in about half of them
        x1, z1 = rng.integers(0, 1 << 64, size=(2, 9), dtype=np.uint64)
        x2, z2 = rng.integers(0, 1 << 64, size=(2, 7), dtype=np.uint64)
        got = phase_exponent(x1[:, None], z1[:, None], x2, z2)
        expect = [
            [phase_exponent(*map(int, (a, b, c, d))) for c, d in zip(x2, z2)]
            for a, b in zip(x1, z1)
        ]
        assert got.shape == (9, 7) and got.tolist() == expect

    def test_site_63(self):
        # Y63 X63 = -i Z63, as ints and as uint64 arrays
        top = 1 << 63
        assert phase_exponent(top, top, top, 0) == 3
        arrays = [np.array([m], dtype=np.uint64) for m in (top, top, top, 0)]
        assert phase_exponent(*arrays).tolist() == [3]


class TestCommutator:
    def test_su2(self):
        x = PauliOperator.from_terms(1, [(1.0, "X0")])
        y = PauliOperator.from_terms(1, [(1.0, "Y0")])
        assert commutator(x, y) == PauliOperator.from_terms(1, [(2j, "Z0")])

    def test_self_commutator_is_exact_zero(self):
        x = PauliOperator.from_terms(1, [(1.0, "X0")])
        assert commutator(x, x).terms == {}

    def test_two_site_example(self):
        # [X0 X1, Z1] expanded through dense matrices
        a = PauliOperator.from_terms(2, [(1.0, "X0 X1")])
        b = PauliOperator.from_terms(2, [(1.0, "Z1")])
        got = commutator(a, b)
        dense = kron_operator(a) @ kron_operator(b) - kron_operator(b) @ kron_operator(a)
        assert np.abs(kron_operator(got) - dense).max() < 1e-12
        assert got == PauliOperator.from_terms(2, [(-2j, "X0 Y1")])

    def test_antisymmetry_and_jacobi(self, rng):
        for _ in range(20):
            a = random_operator(3, rng)
            b = random_operator(3, rng)
            c = random_operator(3, rng)
            assert commutator(a, b) == (-1.0) * commutator(b, a)
            jacobi = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert all(abs(v) < 1e-9 for v in jacobi.terms.values()) or jacobi.terms == {}


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_geometric_k_local(2, 2)) == 15
        assert len(enumerate_geometric_k_local(1, 1)) == 3
        assert [s.to_text() for s in enumerate_geometric_k_local(1, 1)] == ["X0", "Y0", "Z0"]

    def test_chain_counts(self):
        assert len(enumerate_geometric_k_local(100, 2)) == 1191

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3), (6, 3), (5, 1)])
    def test_against_brute_force(self, n, k):
        def window_ok(s):
            if s.is_identity:
                return False
            sites = s.support
            return sites[-1] - sites[0] + 1 <= k

        brute = {s for s in all_strings(n, include_identity=False) if window_ok(s)}
        got = enumerate_geometric_k_local(n, k)
        assert len(got) == len(set(got)) == len(brute)
        assert set(got) == brute

    def test_deterministic_order(self):
        a = enumerate_geometric_k_local(5, 2)
        b = enumerate_geometric_k_local(5, 2)
        assert a == b
        keys = [letters_sort_key(s) for s in a]
        assert keys == sorted(keys)

    def test_letter_order_beyond_64_sites(self):
        # built in order, so the n=100 basis needs no 64-bit mask
        a = enumerate_geometric_k_local(100, 2)
        assert a == sorted(a, key=letters_sort_key)


class TestSortKey:
    """``all_strings`` follows the letter key ``letters_sort_key``; operator listings, (x, z)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_string(self, n):
        strings = all_strings(n)
        assert len(strings) == 4**n
        assert strings == sorted(strings, key=letters_sort_key)
        assert all_strings(n, include_identity=False) == strings[1:]

    def test_two_local_closure_n6(self):
        # every product b_l t b_k of the 2-local string basis on six sites,
        # which is every string there
        strings = all_strings(6)
        assert len(strings) == 4096
        op = PauliOperator(6, {s: 1.0 for s in reversed(strings)})
        assert op.strings() == sorted(strings, key=mask_sort_key)

    def test_chain_beyond_64_sites(self):
        # the paper's 100-site chain lists its 297 terms, by (x, z): every
        # Z Z bond (x = 0) first, then each bond's X X and Y Y, which share x
        h = xxz_chain(100)
        assert h.strings() == sorted(h.terms, key=mask_sort_key) and len(h.terms) == 297
        bonds = range(99)
        assert h.to_text().split("; ") == [f"-0.5 Z{i} Z{i+1}" for i in bonds] + [
            f"-1.0 {p}{i} {p}{i+1}" for i in bonds for p in "XY"
        ]
        assert repr(h) == f"PauliOperator(100, {h.to_text()!r})"


def assert_mask_order(strings, seed):
    strings = list(strings)
    np.random.default_rng(seed).shuffle(strings)
    assert [strings[i] for i in mask_order(*masks(strings))] == sorted(strings, key=mask_sort_key)


def repeated_masks(top):
    """300 random masks with repeats, ``top`` as the highest bit, and pairs
    that share x but not z or z but not x."""
    rng = np.random.default_rng(3)
    x = rng.choice(np.array([0, 1, 5, top], dtype=np.uint64), 300)
    z = rng.choice(np.array([0, 2, 5, top], dtype=np.uint64), 300)
    return x, z


class TestCanonicalOrder:
    """The one string order of tables, table files and operator listings, by (x, z)."""

    @pytest.mark.parametrize("top", [1 << 63, 1 << 31], ids=["wide", "one-word"])
    def test_repeated_masks(self, top):
        # masks below 2^32 take the one-word sort, wider ones the lexsort
        x, z = repeated_masks(top)
        order = mask_order(x, z)
        assert sorted(order.tolist()) == list(range(len(x)))
        got = list(zip(x[order].tolist(), z[order].tolist()))
        assert got == sorted(zip(x.tolist(), z.tolist()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_string(self, n):
        assert_mask_order(
            [PauliString(n, x, z) for x in range(1 << n) for z in range(1 << n)], n
        )

    def test_two_local_closure_n6(self):
        b = enumerate_geometric_k_local(6, 2)
        assert_mask_order(mask_strings(6, *required_strings(b, string_basis_operators(b))), 6)

    def test_top_bit_n64(self):
        # random masks with every bit, the top one included, equally likely,
        # plus strings whose window starts or ends at site 63
        rng = np.random.default_rng(64)
        words = rng.integers(0, 1 << 64, size=(400, 2), dtype=np.uint64, endpoint=False)
        strings = {PauliString(64, int(x), int(z)) for x, z in words.tolist()}
        strings |= {PauliString.from_text(t, 64) for t in ("I", "X63", "Y0 Z63", "Z62 Y63")}
        assert any(s.x >> 63 or s.z >> 63 for s in strings)
        assert_mask_order(strings, 64)

    @pytest.mark.parametrize("width", [31, 32, 33, 64])
    def test_window_across_word_boundary(self, width):
        # windows 31 to 64 sites wide, at either end of 64 sites, and strings
        # that differ from them at one window site, the last one or one on
        # either side of site 32, where a mask passes from its low 32 bits
        # to its high ones
        n, rng = 64, np.random.default_rng(width)

        def string(first, codes):
            x = sum((int(c) & 1) << site for site, c in enumerate(codes, first))
            z = sum((int(c) >> 1) << site for site, c in enumerate(codes, first))
            return PauliString(n, x, z)

        strings = {PauliString.identity(n)}
        for first in sorted({0, n - width}):
            for _ in range(4):
                codes = rng.integers(0, 4, size=width)
                codes[[0, -1]] = rng.integers(1, 4, size=2)
                strings.add(string(first, codes))
                for site in {1, 30, 31, 32, 33, width - 1} & set(range(1, width)):
                    for code in range(site == width - 1, 4):  # the last site stays a letter
                        strings.add(string(first, np.where(np.arange(width) == site, code, codes)))
        assert {s.support[-1] - s.support[0] + 1 for s in strings if s.support} == {width}
        assert_mask_order(strings, width)

    def test_empty(self):
        assert len(mask_order(*masks([]))) == 0


class TestUniqueMasks:
    @pytest.mark.parametrize("top", [1 << 63, 1 << 31], ids=["wide", "one-word"])
    def test_against_set(self, top):
        x, z = repeated_masks(top)
        ux, uz, inverse = unique_masks(x, z)
        assert list(zip(ux.tolist(), uz.tolist())) == sorted(set(zip(x.tolist(), z.tolist())))
        assert np.array_equal(ux[inverse], x) and np.array_equal(uz[inverse], z)

    def test_empty(self):
        ux, uz, inverse = unique_masks(*masks([]))
        assert len(ux) == len(uz) == len(inverse) == 0


class TestDense:
    def test_identity(self):
        op = PauliOperator.from_string(PauliString.identity(1))
        assert np.abs(dense_matrix(op) - np.eye(2)).max() == 0

    def test_z_diagonal(self):
        op = PauliOperator.from_terms(1, [(1.0, "Z0")])
        assert np.allclose(np.diag(dense_matrix(op)), [1, -1])

    def test_xx_antidiagonal(self):
        s = PauliString.from_text("X0 X1", 2)
        assert np.abs(dense_matrix(PauliOperator.from_string(s)) - np.fliplr(np.eye(4))).max() == 0

    def test_limit(self, monkeypatch):
        monkeypatch.setenv("GIBBSLEARN_DENSE_LIMIT", "3")
        with pytest.raises(DenseLimitExceeded):
            dense_matrix(PauliOperator.from_string(PauliString.identity(4)))

    @settings(max_examples=30)
    @given(pauli_strings(max_n=4))
    def test_matches_kron(self, p):
        assert np.abs(dense_matrix(PauliOperator.from_string(p)) - kron_string(p)).max() < 1e-12

    def test_operator_matches_kron(self, rng):
        # complex coefficients on strings that share x-masks, so several
        # strings land on the same entries
        for n in (1, 3, 4):
            op = random_operator(n, rng, terms=3 * n + 2)
            assert np.abs(dense_matrix(op) - kron_operator(op)).max() < 1e-12

    def test_selfadjoint_gives_hermitian(self, rng):
        strings = all_strings(3, include_identity=False)
        coeffs = rng.normal(size=len(strings))
        op = PauliOperator(3, dict(zip(strings, coeffs)))
        mat = dense_matrix(op)
        assert np.abs(mat - mat.conj().T).max() < 1e-12


class TestOperator:
    def test_canonical_form_drops_zeros(self):
        x = PauliString.from_text("X0", 1)
        op = PauliOperator(1, {x: 1.0}) + PauliOperator(1, {x: -1.0})
        assert op.terms == {}

    def test_adjoint_conjugates(self):
        op = PauliOperator.from_terms(1, [(1 + 2j, "X0")])
        assert not op.is_selfadjoint()

    def test_text_roundtrip(self):
        cases = ["X0 X1", "Z4", "I"]
        for text in cases:
            assert PauliString.from_text(text, 5).to_text() == text

    def test_bad_text(self):
        with pytest.raises(ValueError, match="cannot parse"):
            PauliString.from_text("Q1", 2)
        with pytest.raises(ValueError, match="listed twice"):
            PauliString.from_text("X0 X0", 2)
        with pytest.raises(ValueError, match="listed twice"):
            PauliString.from_text("X1 Z0 Y1", 2)
        with pytest.raises(ValueError, match="outside"):
            PauliString.from_text("X7", 2)
        for token in ("X", "Xa", "X-1", "X1.0"):
            with pytest.raises(ValueError, match="cannot parse"):
                PauliString.from_text(token, 2)

    @pytest.mark.parametrize("n", [1, 3])
    def test_text_against_letters(self, n):
        # to_text and from_text read the masks; the letters map is the reference
        for x in range(1 << n):
            for z in range(1 << n):
                s = PauliString(n, x, z)
                text = letters_text(s)
                assert s.to_text() == text
                assert PauliString.from_text(text, n) == s
                shuffled = " ".join(reversed(text.split()))
                assert PauliString.from_text(shuffled, n) == s


def assert_text_roundtrip(x, z, n):
    x, z = np.asarray(x, dtype=np.uint64), np.asarray(z, dtype=np.uint64)
    lines = texts(x, z)
    assert lines == [letters_text(s) for s in mask_strings(n, x, z)]
    back_x, back_z = parse_texts(lines, n)
    assert back_x.dtype == back_z.dtype == np.uint64
    assert np.array_equal(back_x, x) and np.array_equal(back_z, z)


class TestTextCodec:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_string(self, n):
        x, z = np.divmod(np.arange(4**n), 1 << n)
        assert_text_roundtrip(x, z, n)

    def test_two_local_closure_n6(self):
        # every product b_l t b_k of the 2-local string basis on six sites,
        # which is every string there
        x, z = masks(all_strings(6))
        assert len(x) == 4096
        assert_text_roundtrip(x, z, 6)

    def test_top_bit_n64(self):
        words = np.random.default_rng(64).integers(0, 1 << 64, size=(2, 500), dtype=np.uint64)
        assert ((words >> np.uint64(63)) == 1).any()
        assert_text_roundtrip(*words, 64)
        top = np.array([1 << 63], dtype=np.uint64)
        assert texts(top, top) == ["Y63"]

    def test_identity_and_spelling(self):
        x, z = parse_texts(["I", "", "  ", "X1 X0", "X0 X1", " Z2\t Y0 "], 3)
        assert x.tolist() == [0, 0, 0, 3, 3, 1]
        assert z.tolist() == [0, 0, 0, 0, 0, 5]
        assert texts(x, z) == ["I", "I", "I", "X0 X1", "X0 X1", "Y0 Z2"]

    def test_empty(self):
        x, z = parse_texts([], 3)
        assert x.dtype == z.dtype == np.uint64 and len(x) == len(z) == 0
        assert texts(x, z) == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("Z1 Q1", "cannot parse Pauli token 'Q1'"),
            ("X0 Xa", "cannot parse Pauli token 'Xa'"),
            ("X7", "site 7 outside [0, 4)"),
            ("X0 Z1 Y0", "site 0 listed twice in 'X0 Z1 Y0'"),
            ("X01 Z2", "cannot parse Pauli token 'X01'"),
            ("X\u0663", "cannot parse Pauli token 'X\u0663'"),
            ("Y\u00b2", "cannot parse Pauli token 'Y\u00b2'"),
        ],
        ids=["letter", "site", "range", "twice", "leading-zero", "arabic-indic", "superscript"],
    )
    def test_bad_row_among_many(self, bad, message):
        # the rows before the bad one parse X0 and Z1 first, so a duplicate is
        # caught on tokens already parsed; a site is ASCII digits with no
        # leading zero, so every token that parses is read as it is written
        good = texts(*np.divmod(np.arange(256), 16))
        with pytest.raises(ValueError) as single:
            PauliString.from_text(bad, 4)
        with pytest.raises(ValueError) as many:
            parse_texts(good + [bad] + good, 4)
        assert str(single.value) == str(many.value) == message

    def test_beyond_64_sites(self):
        # PauliString text is not bounded by the uint64 masks of a table
        s = PauliString(100, 1 << 99, (1 << 99) | 1)
        assert s.to_text() == "Z0 Y99"
        assert PauliString.from_text("Y99 Z0", 100) == s
