"""Exact algebra of n-qubit Pauli strings and sparse operators.

Strings are stored as a pair of bitmasks (x, z); site k corresponds to bit k.
The letter at a site is determined by the bit pair: (0,0) identity, (1,0) X,
(1,1) Y, (0,1) Z, with the self-adjoint convention Y = i * X * Z.  All phases
produced by products are exact fourth roots of unity, tracked as integer
powers of i, never as floats.

Every sorted set of strings (the closure, tables, table files, operator
listings) is sorted by (x, z), the order of ``mask_order``; the string basis
``enumerate_geometric_k_local`` alone is built in a letter order.

``dense_matrix`` is the one bridge to dense 2^n x 2^n matrices; it refuses
more sites than ``dense_limit()``.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DenseLimitExceeded, DimensionMismatch

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
PHASE_TABLE = np.array(PHASES)  # i^g for an array of exponents g

_CODE_LETTERS = ("I", "X", "Z", "Y")  # indexed by the code x_bit | z_bit << 1
_TOKEN = re.compile(r"([XYZ])(0|[1-9][0-9]*)")  # a letter and a site, read as it is written
_RANKED_CODES = (0, 1, 3, 2)  # the codes of I < X < Y < Z, the basis's letter order

DEFAULT_DENSE_LIMIT = 12
_DENSE_LIMIT_ENV = "GIBBSLEARN_DENSE_LIMIT"


def dense_limit() -> int:
    """Site limit for dense 2^n x 2^n constructions: GIBBSLEARN_DENSE_LIMIT if set, else 12.

    A value of the variable that is not a whole number of at least 1 raises ConfigError.
    """
    value = os.environ.get(_DENSE_LIMIT_ENV) or str(DEFAULT_DENSE_LIMIT)
    if not value.strip().isdecimal() or int(value) < 1:
        raise ConfigError(f"{_DENSE_LIMIT_ENV} = {value!r}: must be a whole number of at least 1")
    return int(value)


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
    def from_text(cls, text: str, n: int) -> "PauliString":
        """Parse the textual format, e.g. "X0 X1", "Z4" or "I"; see ``parse_texts``."""
        x, z = parse_texts([text], n)
        return cls(n, int(x[0]), int(z[0]))

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

    def to_text(self) -> str:
        return texts(*np.array([[self.x], [self.z]], dtype=object))[0]

    def __repr__(self):
        return f"PauliString({self.n}, '{self.to_text()}')"


def _require_same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"operands act on {a.n} and {b.n} sites")


def phase_exponent(x1, z1, x2, z2):
    """Integer g with p*q = i^g * (the string with masks (x1 ^ x2, z1 ^ z2)).

    p has masks (x1, z1) and q (x2, z2), all Python ints, so strings of any
    width, or all uint64 arrays that broadcast.  g = y(p) + y(q) - y(pq) +
    2 popcount(z1 & x2) mod 4, with y the number of Y letters (Aaronson and
    Gottesman 2004).  Array sums wrap in uint8, modulo 256, a multiple of 4,
    so g stays exact.
    """
    popcount = int.bit_count if isinstance(x1, int) else np.bitwise_count
    g = (
        popcount(x1 & z1)
        + popcount(x2 & z2)
        - popcount((x1 ^ x2) & (z1 ^ z2))
        + 2 * popcount(z1 & x2)
    )
    return g % 4


def multiply(p: PauliString, q: PauliString) -> Tuple[PauliString, complex]:
    """Product of two strings: p*q = phase * r with phase in {1, i, -1, -i}."""
    _require_same_n(p, q)
    r = PauliString(p.n, p.x ^ q.x, p.z ^ q.z)
    return r, PHASES[phase_exponent(p.x, p.z, q.x, q.z)]


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

    def __rmul__(self, scalar: complex) -> "PauliOperator":
        return PauliOperator(self.n, {s: scalar * c for s, c in self.terms.items()})

    def is_selfadjoint(self) -> bool:
        return all(c.imag == 0 for c in self.terms.values())

    def coefficient(self, string: PauliString) -> complex:
        return self.terms.get(string, 0j)

    def strings(self) -> List[PauliString]:
        """The strings of the terms, sorted by (x, z) like tables and table files."""
        return sorted(self.terms, key=lambda s: (s.x, s.z))

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
            coeff = 2 * cp * cq * PHASES[phase_exponent(p.x, p.z, q.x, q.z)]
            acc[r] = acc.get(r, 0) + coeff
    return PauliOperator(a.n, acc)


def enumerate_geometric_k_local(n: int, k: int) -> List[PauliString]:
    """All non-identity strings supported on a contiguous window of <= k sites.

    Built in letter order, with no sort and no mask array, so chains beyond 64
    sites work too: by first site, by width, then by the letters of the window
    site by site, I < X < Y < Z.  This order fixes the row order of the Gram
    matrix, W and the program.  The identity is left out: as a candidate term
    it would satisfy the normalization on its own and leave the program's
    scale arbitrary.
    """
    if not 1 <= k <= n:
        raise ValueError(f"locality k={k} must satisfy 1 <= k <= n={n}")
    out = []
    for first in range(n):
        for width in range(1, min(k, n - first) + 1):
            # each site's letter code is x_bit | z_bit << 1; both ends are non-identity
            for codes in itertools.product(_RANKED_CODES, repeat=width):
                if codes[0] and codes[-1]:
                    x = sum((code & 1) << site for site, code in enumerate(codes, first))
                    z = sum((code >> 1) << site for site, code in enumerate(codes, first))
                    out.append(PauliString(n, x, z))
    return out


# --- mask arrays ----------------------------------------------------------

MASK_SITE_LIMIT = 64  # masks are held as uint64 words


def check_mask_limit(n: int, what: str):
    """Refuse ``what`` on no sites or on more sites than a uint64 mask holds."""
    if not 1 <= n <= MASK_SITE_LIMIT:
        raise ValueError(f"{what} on n={n} sites: masks hold 1 to at most {MASK_SITE_LIMIT} sites")


def masks(strings: Sequence[PauliString]) -> Tuple[np.ndarray, np.ndarray]:
    """The x and z masks of a list of strings as two uint64 arrays."""
    x = np.array([s.x for s in strings], dtype=np.uint64)
    z = np.array([s.z for s in strings], dtype=np.uint64)
    return x, z


def texts(x: np.ndarray, z: np.ndarray) -> List[str]:
    """The text of each string with masks (x, z), e.g. "X0 Y2" or "I"; inverse of ``parse_texts``.

    uint64 masks, or object arrays of Python ints beyond 64 sites; one pass per site.
    """
    out = np.zeros(x.shape, dtype=str)
    for site in range(int((x | z).max(initial=0)).bit_length()):
        words = np.array(["", *(f"{letter}{site} " for letter in _CODE_LETTERS[1:])])
        out = np.strings.add(out, words[((x >> site & 1) | (z >> site & 1) << 1).astype(np.intp)])
    return [text or "I" for text in np.strings.rstrip(out).tolist()]


def parse_texts(lines: Sequence[str], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The masks of strings on n sites written as text: uint64, or Python ints beyond 64 sites.

    A line is "I" or "" for the identity, or tokens such as "Y3" (a letter X, Y
    or Z and a site below n, in ASCII digits with no leading zero, so every
    token reads as ``texts`` writes it) in any order.  A token that does not
    parse, a site out of range and a site listed twice raise ValueError.
    """
    parsed: Dict[str, Tuple[int, int]] = {}  # token -> (site, letter code), each parsed once
    xs, zs = [], []
    for line in lines:
        text = line.strip()
        x = z = 0
        for token in () if text == "I" else text.split():
            if token not in parsed:
                match = _TOKEN.fullmatch(token)
                if not match:
                    raise ValueError(f"cannot parse Pauli token {token!r}")
                letter, site = match[1], int(match[2])
                if site >= n:
                    raise ValueError(f"site {site} outside [0, {n})")
                parsed[token] = site, _CODE_LETTERS.index(letter)
            site, code = parsed[token]
            if (x | z) >> site & 1:
                raise ValueError(f"site {site} listed twice in {text!r}")
            x |= (code & 1) << site
            z |= (code >> 1) << site
        xs.append(x)
        zs.append(z)
    dtype = np.uint64 if n <= MASK_SITE_LIMIT else object
    return np.array(xs, dtype=dtype), np.array(zs, dtype=dtype)


def mask_order(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The permutation that sorts strings, given by their uint64 masks, by (x, z).

    When every mask fits in 32 bits, as on up to 32 sites, one ``np.argsort``
    of the word x << 32 | z, which sorts by (x, z) too; wider masks, from 33
    to 64 sites, take one ``np.lexsort`` on (x, z).
    """
    if int((x | z).max(initial=0)) >> 32 == 0:
        return np.argsort(x << np.uint64(32) | z)
    return np.lexsort((z, x))


def unique_masks(x: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct strings of two mask arrays, sorted by (x, z), and where each lands.

    Returns their masks and ``inverse``: (x, z)[i] is the ``inverse[i]``-th
    of them.  One ``mask_order``, then a cumsum over the sorted masks.
    """
    order = mask_order(x, z)
    x, z = x[order], z[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return x[first], z[first], inverse


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


def dense_matrix(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a sparse operator; Hermitian when the operator is selfadjoint.

    The one place where a Pauli object becomes a matrix: a single string is
    ``dense_matrix(PauliOperator.from_string(s))``.  With x and z a string's
    basis-index masks (``index_masks``), column c of its matrix holds
    i^(number of Y letters) (-1)^popcount(c & z) in row c ^ x and nothing
    else; each term adds its coefficient times that, one fancy-index ``+=``
    per string.  More sites than ``dense_limit()`` raise DenseLimitExceeded.
    """
    limit = dense_limit()
    if op.n > limit:
        raise DenseLimitExceeded(
            f"dense representation requested for n={op.n} sites, limit is {limit} "
            f"(override with {_DENSE_LIMIT_ENV})"
        )
    dim = 1 << op.n
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for string, coeff in op.terms.items():
        xi, zi = index_masks(np.array([string.x, string.z], dtype=np.uint64), op.n).tolist()
        signs = 1 - 2 * (np.bitwise_count(cols & zi).astype(np.int64) & 1)
        out[cols ^ xi, cols] += coeff * PHASES[(string.x & string.z).bit_count() % 4] * signs
    return out


def all_strings(n: int, include_identity: bool = True) -> List[PauliString]:
    """All 4^n strings (or 4^n - 1 traceless ones): the identity first, then in letter order.

    The order of ``enumerate_geometric_k_local(n, n)``.
    """
    return [PauliString.identity(n)] * include_identity + enumerate_geometric_k_local(n, n)
