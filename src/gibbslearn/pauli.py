"""Exact algebra of n-qubit Pauli strings and sparse operators.

Strings are stored as a pair of bitmasks (x, z); site k corresponds to bit k.
The letter at a site is determined by the bit pair: (0,0) identity, (1,0) X,
(1,1) Y, (0,1) Z, with the self-adjoint convention Y = i * X * Z.  All phases
produced by products are exact fourth roots of unity, tracked as integer
powers of i, never as floats.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import DenseLimitExceeded, DimensionMismatch

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_LETTER_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_CODE_LETTERS = ("I", "X", "Z", "Y")  # indexed by the code x_bit | z_bit << 1
# rank of each code's letter in the alphabetical order I < X < Y < Z
_CODE_RANKS = np.array([0, 1, 3, 2], dtype=np.uint8)

DEFAULT_DENSE_LIMIT = 12
_DENSE_LIMIT_ENV = "GIBBSLEARN_DENSE_LIMIT"


def dense_limit() -> int:
    """Current site limit for dense 2^n x 2^n constructions."""
    value = os.environ.get(_DENSE_LIMIT_ENV)
    return int(value) if value else DEFAULT_DENSE_LIMIT


def _check_dense(n: int):
    limit = dense_limit()
    if n > limit:
        raise DenseLimitExceeded(
            f"dense representation requested for n={n} sites, limit is {limit} "
            f"(override with {_DENSE_LIMIT_ENV})"
        )


@dataclass(frozen=True)
class PauliString:
    """A single n-site Pauli string, self-adjoint and squaring to identity."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"site count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        if (self.x | self.z) & ~mask:
            raise ValueError("site indices out of range")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_letters(cls, n: int, letters: Mapping[int, str]) -> "PauliString":
        x = z = 0
        for site, letter in letters.items():
            if not 0 <= site < n:
                raise ValueError(f"site {site} outside [0, {n})")
            try:
                bx, bz = _LETTER_TO_BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x |= bx << site
            z |= bz << site
        return cls(n, x, z)

    @classmethod
    def from_text(cls, text: str, n: int) -> "PauliString":
        """Parse the textual format, e.g. "X0 X1", "Z4" or "I"."""
        text = text.strip()
        if text in ("", "I"):
            return cls.identity(n)
        x = z = 0
        for token in text.split():
            letter, site = token[0], token[1:]
            if letter not in _LETTER_TO_BITS or not site.isdigit():
                raise ValueError(f"cannot parse Pauli token {token!r}")
            site = int(site)
            if site >= n:
                raise ValueError(f"site {site} outside [0, {n})")
            if (x | z) >> site & 1:
                raise ValueError(f"site {site} listed twice in {text!r}")
            bx, bz = _LETTER_TO_BITS[letter]
            x |= bx << site
            z |= bz << site
        return cls(n, x, z)

    @property
    def letters(self) -> Dict[int, str]:
        occupied = self.x | self.z
        return {
            site: _CODE_LETTERS[(self.x >> site & 1) | (self.z >> site & 1) << 1]
            for site in range(occupied.bit_length())
            if occupied >> site & 1
        }

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.letters))

    def commutes_with(self, other: "PauliString") -> bool:
        _require_same_n(self, other)
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def sort_key(self):
        """Canonical order: identity first, then (leftmost site, width, letters)."""
        occupied = self.x | self.z
        if not occupied:
            return (0, 0, 0, ())
        first = (occupied & -occupied).bit_length() - 1
        width = occupied.bit_length() - first
        x, z = self.x >> first, self.z >> first
        window = tuple(
            _CODE_LETTERS[(x >> k & 1) | (z >> k & 1) << 1] for k in range(width)
        )
        return (1, first, width, window)

    def to_text(self) -> str:
        occupied = self.x | self.z
        if not occupied:
            return "I"
        tokens = []
        while occupied:
            site = (occupied & -occupied).bit_length() - 1
            letter = _CODE_LETTERS[(self.x >> site & 1) | (self.z >> site & 1) << 1]
            tokens.append(f"{letter}{site}")
            occupied &= occupied - 1
        return " ".join(tokens)

    def __repr__(self):
        return f"PauliString({self.n}, '{self.to_text()}')"


def _require_same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"operands act on {a.n} and {b.n} sites")


def phase_exponent(p: PauliString, q: PauliString) -> int:
    """Integer g with p*q = i^g * (canonical string of the product)."""
    x3 = p.x ^ q.x
    z3 = p.z ^ q.z
    g = (
        (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (p.z & q.x).bit_count()
    )
    return g % 4


def multiply(p: PauliString, q: PauliString) -> Tuple[PauliString, complex]:
    """Product of two strings: p*q = phase * r with phase in {1, i, -1, -i}."""
    _require_same_n(p, q)
    r = PauliString(p.n, p.x ^ q.x, p.z ^ q.z)
    return r, PHASES[phase_exponent(p, q)]


class PauliOperator:
    """A sparse complex linear combination of Pauli strings.

    Stored in canonical form: no coefficient is exactly zero.  Immutable by
    convention; all arithmetic returns new instances.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[PauliString, complex] | None = None):
        self.n = n
        clean: Dict[PauliString, complex] = {}
        if terms:
            for string, coeff in terms.items():
                if string.n != n:
                    raise DimensionMismatch(
                        f"term on {string.n} sites in an operator on {n} sites"
                    )
                coeff = complex(coeff)
                if coeff != 0:
                    clean[string] = clean.get(string, 0) + coeff
                    if clean[string] == 0:
                        del clean[string]
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "PauliOperator":
        return cls(n)

    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "PauliOperator":
        return cls(string.n, {string: coeff})

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[Tuple[complex, str]]) -> "PauliOperator":
        """Build from (coefficient, text) pairs, e.g. [(-1.0, "X0 X1")]."""
        acc: Dict[PauliString, complex] = {}
        for coeff, text in terms:
            string = PauliString.from_text(text, n)
            acc[string] = acc.get(string, 0) + complex(coeff)
        return cls(n, acc)

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        _require_same_n(self, other)
        acc = dict(self.terms)
        for string, coeff in other.terms.items():
            acc[string] = acc.get(string, 0) + coeff
        return PauliOperator(self.n, acc)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliOperator":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "PauliOperator":
        return PauliOperator(self.n, {s: scalar * c for s, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        return NotImplemented

    def __matmul__(self, other: "PauliOperator") -> "PauliOperator":
        """Operator product, expanded term by term with exact phases."""
        _require_same_n(self, other)
        acc: Dict[PauliString, complex] = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                r = PauliString(self.n, p.x ^ q.x, p.z ^ q.z)
                coeff = cp * cq * PHASES[phase_exponent(p, q)]
                acc[r] = acc.get(r, 0) + coeff
        return PauliOperator(self.n, acc)

    def adjoint(self) -> "PauliOperator":
        return PauliOperator(self.n, {s: c.conjugate() for s, c in self.terms.items()})

    def is_selfadjoint(self, tol: float = 0.0) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def coefficient(self, string: PauliString) -> complex:
        return self.terms.get(string, 0j)

    def strings(self) -> List[PauliString]:
        return sorted(self.terms, key=PauliString.sort_key)

    def to_text(self) -> str:
        parts = []
        for string in self.strings():
            c = self.terms[string]
            c_repr = repr(c.real) if c.imag == 0 else repr(c)
            parts.append(f"{c_repr} {string.to_text()}")
        return "; ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PauliOperator({self.n}, {self.to_text()!r})"

    def __eq__(self, other):
        return (
            isinstance(other, PauliOperator)
            and self.n == other.n
            and self.terms == other.terms
        )


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """ab - ba in canonical sparse form; exact zero when all terms commute."""
    _require_same_n(a, b)
    acc: Dict[PauliString, complex] = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            if p.commutes_with(q):
                continue
            # pq and qp share the base string; anticommuting means qp = -pq,
            # so [p, q] = 2 * phase(p, q) * base.
            r = PauliString(a.n, p.x ^ q.x, p.z ^ q.z)
            coeff = 2 * cp * cq * PHASES[phase_exponent(p, q)]
            acc[r] = acc.get(r, 0) + coeff
    return PauliOperator(a.n, acc)


def enumerate_geometric_k_local(
    n: int, k: int, include_identity: bool = False
) -> List[PauliString]:
    """All non-identity strings supported on a contiguous window of <= k sites.

    Deterministic canonical order; the identity is excluded unless
    ``include_identity`` is set (it contributes nothing to commutators but
    matters for operator counts that include it).
    """
    if not 1 <= k <= n:
        raise ValueError(f"locality k={k} must satisfy 1 <= k <= n={n}")
    out = []
    letters_nontrivial = ("X", "Y", "Z")
    letters_all = ("I", "X", "Y", "Z")
    for width in range(1, k + 1):
        for first in range(n - width + 1):
            if width == 1:
                for letter in letters_nontrivial:
                    out.append(PauliString.from_letters(n, {first: letter}))
                continue
            interior = range(first + 1, first + width - 1)
            for left in letters_nontrivial:
                for mid in itertools.product(letters_all, repeat=len(interior)):
                    for right in letters_nontrivial:
                        assignment = {first: left, first + width - 1: right}
                        for site, letter in zip(interior, mid):
                            if letter != "I":
                                assignment[site] = letter
                        out.append(PauliString.from_letters(n, assignment))
    out.sort(key=PauliString.sort_key)
    if include_identity:
        out.insert(0, PauliString.identity(n))
    return out


# --- mask arrays and the required-string closure --------------------------

MASK_SITE_LIMIT = 64  # masks are held as uint64 words


def check_mask_limit(n: int, what: str):
    """Refuse ``what`` on more sites than a uint64 mask holds."""
    if n > MASK_SITE_LIMIT:
        raise ValueError(f"{what} on n={n} sites: masks hold at most {MASK_SITE_LIMIT} sites")


def masks(strings: Sequence[PauliString]) -> Tuple[np.ndarray, np.ndarray]:
    """The x and z masks of a list of strings as two uint64 arrays."""
    x = np.array([s.x for s in strings], dtype=np.uint64)
    z = np.array([s.z for s in strings], dtype=np.uint64)
    return x, z


def canonical_order(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The permutation that sorts strings, given by their uint64 masks, by ``sort_key``.

    One ``np.lexsort`` over the key's parts: the non-identity flag, the first
    site, the width, then the letter rank at each site of the window from its
    first site on.  Every shift is by at most 63 bits.
    """
    occupied = x | z
    non_identity = occupied != 0
    lowest = occupied & (~occupied + np.uint64(1))
    first = np.where(non_identity, np.bitwise_count(lowest - np.uint64(1)), 0).astype(np.uint64)
    smeared = occupied.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        smeared |= smeared >> np.uint64(shift)
    width = np.bitwise_count(smeared).astype(np.uint64) - first
    sites = np.arange(int(width.max(initial=0)), dtype=np.uint64)
    xs = (x >> first)[:, None] >> sites & np.uint64(1)
    zs = (z >> first)[:, None] >> sites & np.uint64(1)
    ranks = _CODE_RANKS[xs | zs << np.uint64(1)]
    return np.lexsort((*ranks.T[::-1], width, first, non_identity))


@dataclass(frozen=True)
class StringClosure:
    """The distinct strings of a product closure and where each product lands.

    ``strings`` are distinct and sorted by their (x, z) masks, which ``x`` and
    ``z`` hold as uint64 arrays.  Every product is an index into them:
    ``pair_idx[l, k]`` for b_l b_k, ``triple_idx[u, l, k]`` for b_l t_u b_k
    and ``term_idx[u]`` for t_u.
    """

    strings: List[PauliString]
    x: np.ndarray
    z: np.ndarray
    pair_idx: np.ndarray
    triple_idx: np.ndarray
    term_idx: np.ndarray


def product_closure(
    b: Sequence[PauliString], terms: Sequence[PauliString]
) -> StringClosure:
    """Required-string closure: every b_l b_k, b_l t b_k and t for t in ``terms``.

    The identity is always included (b_l b_l = I).  The sort key is the mask
    pair itself, so distinct strings never share a key for any n the masks
    can hold; above that the closure refuses to run.
    """
    n = b[0].n
    check_mask_limit(n, "string closure")
    xb, zb = masks(b)
    xt, zt = masks(terms)
    r, u = len(b), len(terms)
    x_pair = xb[:, None] ^ xb[None, :]
    z_pair = zb[:, None] ^ zb[None, :]
    x = np.concatenate([x_pair.ravel(), (xt[:, None, None] ^ x_pair).ravel(), xt])
    z = np.concatenate([z_pair.ravel(), (zt[:, None, None] ^ z_pair).ravel(), zt])

    order = np.lexsort((z, x))
    x, z = x[order], z[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    x, z = x[first], z[first]
    pairs, triples = r * r, r * r * u
    return StringClosure(
        strings=[PauliString(n, *xz) for xz in zip(x.tolist(), z.tolist())],
        x=x,
        z=z,
        pair_idx=inverse[:pairs].reshape(r, r),
        triple_idx=inverse[pairs : pairs + triples].reshape(u, r, r),
        term_idx=inverse[pairs + triples :],
    )


# --- dense bridge ---------------------------------------------------------

def index_masks(site_masks: np.ndarray, n: int) -> np.ndarray:
    """Translate uint64 site bitmasks to computational-basis index bitmasks.

    Site 0 is the first tensor factor, i.e. the most significant index bit.
    """
    out = np.zeros(site_masks.shape, dtype=np.intp)
    for site in range(n):
        bit = (site_masks >> np.uint64(site) & np.uint64(1)).astype(np.intp)
        out |= bit << (n - 1 - site)
    return out


def string_dense(string: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a single string."""
    _check_dense(string.n)
    dim = 1 << string.n
    xi, zi = index_masks(np.array([string.x, string.z], dtype=np.uint64), string.n).tolist()
    cols = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(cols & zi).astype(np.int64) & 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[cols ^ xi, cols] = PHASES[(string.x & string.z).bit_count() % 4] * signs
    return mat


def dense_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of a sparse operator; Hermitian when the operator is selfadjoint."""
    _check_dense(op.n)
    dim = 1 << op.n
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in op.terms.items():
        out += coeff * string_dense(string)
    return out


def dense_to_operator(matrix: np.ndarray, n: int, tol: float = 1e-12) -> PauliOperator:
    """Expand a dense matrix in the Pauli basis, dropping coefficients below tol."""
    _check_dense(n)
    terms = {}
    for string in all_strings(n):
        coeff = np.trace(string_dense(string) @ matrix) / (1 << n)
        if abs(coeff) > tol:
            terms[string] = coeff
    return PauliOperator(n, terms)


def all_strings(n: int, include_identity: bool = True) -> List[PauliString]:
    """All 4^n strings (or 4^n - 1 traceless ones) in canonical order."""
    out = [
        PauliString(n, x, z)
        for x in range(1 << n)
        for z in range(1 << n)
        if include_identity or x or z
    ]
    out.sort(key=PauliString.sort_key)
    return out
