"""Exact desk-scale Gibbs states, expectation tables and the noise model.

A state on n sites is its 2^n x 2^n complex density matrix, a plain numpy
array; ``n_sites`` reads n off its shape.  Gibbs states are prepared by
diagonalizing the dense Hamiltonian matrix one sector, a connected block of
the matrix, at a time.  Expectation tables are the algorithm's only window
onto the state: Pauli strings, as bit masks, and their values, optionally
corrupted by independent Gaussian noise of a given standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import pauli
from .errors import BadTable, DimensionMismatch, IncompleteData
from .pauli import PauliOperator, PauliString

GATHER_ENTRIES = 1 << 20  # density-matrix entries build_table gathers at once

_PHASE_TABLE = np.array(pauli.PHASES)


def n_sites(rho: np.ndarray) -> int:
    """The site count n of a state, a 2^n x 2^n matrix; any other shape raises DimensionMismatch."""
    n = rho.shape[0].bit_length() - 1 if rho.ndim == 2 else 0
    if n < 1 or rho.shape != (1 << n, 1 << n):
        raise DimensionMismatch(f"a state on n sites is a 2^n x 2^n matrix, not shape {rho.shape}")
    return n


def _sectors(m: np.ndarray) -> List[np.ndarray]:
    """The connected components of the nonzero pattern of the square matrix m, as index arrays.

    Each array lists one component's indices in ascending order.  Every index
    starts with its own label and takes the least label among its neighbours;
    pointer jumping (label <- label[label]) lets a label cross a long
    component in a few rounds.
    """
    rows, cols = np.nonzero(m)
    label = np.arange(len(m))
    while True:
        least = label.copy()
        np.minimum.at(least, rows, label[cols])
        least = least[least]
        if (least == label).all():
            break
        label = least
    order = np.argsort(label, kind="stable")
    _, starts = np.unique(label[order], return_index=True)
    return np.split(order, starts[1:])


def gibbs_density(h: PauliOperator, temperature: float) -> np.ndarray:
    """The 2^n x 2^n matrix rho = exp(-h/T) / tr(exp(-h/T)), diagonalizing h one sector at a time.

    The sectors are the connected components of the nonzero pattern of h's
    matrix (``_sectors``): the magnetization sectors of a chain that conserves
    the total Z, one sector for a generic chain.  The least energy of all
    sectors is subtracted before exponentiating, so the construction cannot
    overflow.  A real h matrix (no string with an odd number of Y letters) is
    diagonalized as a real symmetric one; rho is complex either way.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not h.is_selfadjoint():
        raise ValueError("Hamiltonian must be selfadjoint (real coefficients)")
    import scipy.linalg

    hmat = pauli.dense_matrix(h)
    # evd is the faster driver for real blocks, scipy's default (evr) for complex ones
    driver = None if hmat.imag.any() else "evd"
    if driver:
        hmat = hmat.real
    solved = [
        (idx, *scipy.linalg.eigh(hmat[np.ix_(idx, idx)], driver=driver)) for idx in _sectors(hmat)
    ]
    del hmat  # free the 2^n x 2^n h matrix before rho is allocated
    least = min(energies[0] for _, energies, _ in solved)
    weights = [np.exp((least - energies) / temperature) for _, energies, _ in solved]
    total = sum(w.sum() for w in weights)
    rho = np.zeros((1 << h.n, 1 << h.n), dtype=complex)
    for (idx, _, evecs), w in zip(solved, weights):
        rho[np.ix_(idx, idx)] = (evecs * (w / total)) @ evecs.conj().T
    return rho


def expectation(rho: np.ndarray, p: PauliString) -> float:
    """tr(rho p), exploiting that a Pauli string has one entry per row."""
    n = n_sites(rho)
    if p.n != n:
        raise DimensionMismatch(f"string on {p.n} sites, state on {n}")
    xi, zi = pauli.index_masks(np.array([p.x, p.z], dtype=np.uint64), p.n).tolist()
    dim = 1 << p.n
    idx = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(idx & zi).astype(np.int64) & 1)
    gathered = rho[idx, idx ^ xi]
    value = pauli.PHASES[(p.x & p.z).bit_count() % 4] * np.dot(gathered, signs)
    return float(value.real)


def read_products(xb: np.ndarray, zb: np.ndarray, xt: np.ndarray, zt: np.ndarray):
    """The products the moments read, from the uint64 masks of basis strings b and term strings t.

    Returns the pairs (u, k) where t_u anticommutes with b_k, in u-major order;
    the (r, r) masks of every b_l b_k; the (p, r) masks of b_l t_u b_k for the
    p-th pair and every l; and (x, z, inverse), the distinct strings of the
    pairs, the triples and the t_u, sorted by (x, z), and where each lands.
    Where t_u commutes with b_k, b_l [t_u, b_k] is zero: no such triple is built.
    """
    zx = np.bitwise_count(zt[:, None] & xb[None, :])
    u, k = np.nonzero((zx + np.bitwise_count(xt[:, None] & zb[None, :])) % 2 == 1)
    x_pair, z_pair = xb[:, None] ^ xb[None, :], zb[:, None] ^ zb[None, :]
    x_triple, z_triple = x_pair[:, k].T ^ xt[u, None], z_pair[:, k].T ^ zt[u, None]
    distinct = pauli.unique_masks(
        np.concatenate([x_pair.ravel(), x_triple.ravel(), xt]),
        np.concatenate([z_pair.ravel(), z_triple.ravel(), zt]),
    )
    return (u, k), (x_pair, z_pair), (x_triple, z_triple), distinct


def required_strings(
    b_basis: Sequence[PauliString], h_terms: Sequence[PauliOperator]
) -> Tuple[np.ndarray, np.ndarray]:
    """The uint64 masks (x, z) of the strings the moments read (``read_products``), sorted.

    Products b_i b_j give the Gram and modular matrices, the term strings t the
    normalization data, and b_i t b_j the commutator moments wherever t
    anticommutes with b_j.  ``MomentAssembler`` reads exactly these strings.
    """
    if not b_basis:
        return pauli.masks([])
    pauli.check_mask_limit(b_basis[0].n, "string closure")
    terms = [t for op in h_terms for t in op.terms]
    *_, (x, z, _) = read_products(*pauli.masks(b_basis), *pauli.masks(terms))
    return x, z


def write_tsv(path, header: Dict[str, object], rows: Iterable[Tuple[str, str]]):
    """Write ``# key = value`` header lines, then one tab-separated line per row."""
    with open(path, "w") as handle:
        for key, value in header.items():
            handle.write(f"# {key} = {value}\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")


def read_tsv(path) -> Tuple[Dict[str, str], List[Tuple[str, str]]]:
    """Header fields and two-column rows of a file written by ``write_tsv``.

    Blank lines are skipped; a header line after the first row raises
    ValueError.
    """
    header: Dict[str, str] = {}
    rows: List[Tuple[str, str]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if rows:
                    raise ValueError(f"{path}: header line {line!r} after data")
                key, _, raw = line[1:].partition("=")
                header[key.strip()] = raw.strip()
                continue
            text, _, raw = line.partition("\t")
            rows.append((text, raw))
    return header, rows


@dataclass(eq=False)
class ExpectationTable:
    """Pauli strings, as uint64 masks ``x`` and ``z``, and their (possibly noisy) values.

    The constructor sorts the three arrays once into canonical string order
    (``pauli.canonical_order``), which saving follows.  A mask outside the n
    sites, a string listed twice, a non-finite value and an identity value
    other than exactly 1 raise ValueError.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    values: np.ndarray
    noise_sigma: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        pauli.check_mask_limit(self.n, "expectation table")
        x, z = np.asarray(self.x, dtype=np.uint64), np.asarray(self.z, dtype=np.uint64)
        values = np.asarray(self.values, dtype=float)
        if ((x | z) >> np.uint64(self.n)).any():
            raise ValueError(f"a string acts outside the table's {self.n} sites")
        order = pauli.canonical_order(x, z)
        self.x, self.z, self.values = x[order], z[order], values[order]
        _, _, inverse = pauli.unique_masks(self.x, self.z)
        for bad, problem in (
            (np.bincount(inverse)[inverse] > 1, "{s} is listed twice"),
            (~np.isfinite(self.values), "{s} has the value {v!r}, which is not finite"),
            (((self.x | self.z) == 0) & (self.values != 1.0), "{s} has the value {v!r}, not 1"),
        ):
            if bad.any():
                i = np.argmax(bad)
                s = pauli.texts(self.x[i : i + 1], self.z[i : i + 1])[0]
                raise ValueError(problem.format(s=s, v=float(self.values[i])))

    def lookup(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Values of the strings with uint64 masks (x, z); a missing one raises IncompleteData."""
        x, z = np.asarray(x, dtype=np.uint64), np.asarray(z, dtype=np.uint64)
        both_x, both_z = np.concatenate([self.x, x]), np.concatenate([self.z, z])
        _, _, inverse = pauli.unique_masks(both_x, both_z)
        entry = np.full(len(inverse), -1)
        entry[inverse[: len(self.x)]] = np.arange(len(self.x))
        found = entry[inverse[len(self.x) :]]
        if (found < 0).any():
            i = np.argmax(found < 0)
            raise IncompleteData(pauli.texts(x[i : i + 1], z[i : i + 1])[0])
        return self.values[found]

    def save(self, path):
        header = {
            "n": self.n,
            "noise_sigma": repr(self.noise_sigma),
            "seed": "" if self.seed is None else self.seed,
        }
        write_tsv(path, header, zip(pauli.texts(self.x, self.z), map(repr, self.values.tolist())))

    @classmethod
    def load(cls, path) -> "ExpectationTable":
        """Read a table file; a file that cannot be read or is wrong raises BadTable."""
        try:
            header, rows = read_tsv(path)
            if "n" not in header:
                raise ValueError("no 'n' header")
            n = int(header["n"])
            x, z = pauli.parse_texts([text for text, _ in rows], n)
            values = np.array([float(raw) for _, raw in rows])
            noise_sigma, seed = float(header.get("noise_sigma", 0.0)), header.get("seed")
            return cls(n, x, z, values, noise_sigma, int(seed) if seed else None)
        except (OSError, ValueError) as exc:
            raise BadTable(f"table file {path}: {exc}") from exc


def build_table(rho: np.ndarray, strings: Tuple[np.ndarray, np.ndarray]) -> ExpectationTable:
    """Evaluate every string, given as uint64 masks (x, z), exactly; identity is pinned to 1.

    A string with index masks (xi, zi) and y letters Y has
    tr(rho p) = Re(i^y sum_i (-1)^popcount(i & zi) rho[i, i ^ xi]), the
    Walsh-Hadamard transform of the gathered g[i] = rho[i, i ^ xi] read at zi.
    So one transform per distinct xi serves every string that shares it.
    The distinct xi, at most 2^n of them, are gathered in blocks of at most
    ``GATHER_ENTRIES`` entries, so a block never holds more entries than rho.
    A mask outside rho's sites raises the table constructor's ValueError.
    """
    n = n_sites(rho)
    x, z = (np.asarray(m, dtype=np.uint64) for m in strings)
    xi = pauli.index_masks(x, n)
    zi = pauli.index_masks(z, n)
    x_masks, which = np.unique(xi, return_inverse=True)
    phases = _PHASE_TABLE[np.bitwise_count(x & z) % 4]
    dim = 1 << n
    basis = np.arange(dim)
    flat = rho.ravel()
    values = np.empty(len(x))
    per_block = max(1, GATHER_ENTRIES // dim)
    for start in range(0, len(x_masks), per_block):
        block = x_masks[start : start + per_block]
        transformed = _walsh_hadamard(flat[basis * dim + (basis ^ block[:, None])])
        here = (which >= start) & (which < start + len(block))
        values[here] = (phases[here] * transformed[which[here] - start, zi[here]]).real
    values[(x | z) == 0] = 1.0
    return ExpectationTable(n, x, z, values)


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """out[:, k] = sum_i (-1)^popcount(i & k) a[:, i], in place, by butterflies."""
    rows, dim = a.shape
    half = 1
    while half < dim:
        pairs = a.reshape(rows, -1, 2, half)
        low = pairs[:, :, 0].copy()
        pairs[:, :, 0] += pairs[:, :, 1]
        np.subtract(low, pairs[:, :, 1], out=pairs[:, :, 1])
        half *= 2
    return a


def _mix(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on uint64 arrays; products wrap modulo 2^64."""
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def add_noise(table: ExpectationTable, sigma: float, seed) -> ExpectationTable:
    """Independent Gaussian noise of standard deviation sigma per entry, keyed by its string.

    The seed, an int or a ``np.random.SeedSequence``, gives uint64 keys k0, k1.
    The string (x, z) hashes to h = mix(mix(x ^ k0) ^ z), with ``mix`` the
    splitmix64 finalizer, and draws sigma sqrt(-2 ln u1) cos(2 pi u2) with
    u1 = ((h >> 11) + 1) 2^-53 and u2 = (mix(h ^ k1) >> 11) 2^-53.  So any subset
    or reordering of a table carries the same noisy values as the whole, and an
    integral seed, which the table records, reproduces every draw.  The identity
    stays 1, entries are not clamped to [-1, 1], and composing adds variances.
    """
    if sigma < 0:
        raise ValueError(f"noise standard deviation must be >= 0, got {sigma}")
    if sigma == 0:
        return replace(table)
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    k0, k1 = sequence.generate_state(2, np.uint64)
    h = _mix(_mix(table.x ^ k0) ^ table.z)
    u1 = ((h >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (_mix(h ^ k1) >> np.uint64(11)) * 2.0**-53
    values = table.values + sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    values[(table.x | table.z) == 0] = 1.0
    combined = math.sqrt(table.noise_sigma**2 + sigma**2)
    seed_repr = int(seed) if isinstance(seed, (int, np.integer)) else None
    return ExpectationTable(table.n, table.x, table.z, values, combined, seed_repr)
