"""Exact desk-scale Gibbs states, expectation tables and the noise model.

States are prepared by dense Hermitian diagonalization, which also yields
log(rho) for free.  Expectation tables are the algorithm's only window onto
the state: Pauli strings, as bit masks, and their values, optionally
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

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
GATHER_ENTRIES = 1 << 20  # density-matrix entries build_table gathers at once

_PHASE_TABLE = np.array(pauli.PHASES)


@dataclass
class DensityMatrix:
    """A validated density matrix with an optional eigendecomposition cache."""

    n: int
    matrix: np.ndarray
    eigenvalues: Optional[np.ndarray] = None
    eigenvectors: Optional[np.ndarray] = None

    @classmethod
    def from_matrix(cls, n: int, matrix: np.ndarray) -> "DensityMatrix":
        matrix = np.asarray(matrix, dtype=complex)
        dim = 1 << n
        if matrix.shape != (dim, dim):
            raise DimensionMismatch(f"expected shape {(dim, dim)}, got {matrix.shape}")
        if np.abs(matrix - matrix.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(matrix).real - 1.0) > TRACE_TOL or abs(np.trace(matrix).imag) > TRACE_TOL:
            raise ValueError("density matrix does not have unit trace")
        return cls(n, matrix)

    def eigensystem(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.eigenvalues is None:
            import scipy.linalg

            evals, evecs = scipy.linalg.eigh(self.matrix)
            self.eigenvalues, self.eigenvectors = evals, evecs
        return self.eigenvalues, self.eigenvectors

    def log_matrix(self) -> np.ndarray:
        """log(rho); requires a faithful (strictly positive) state."""
        evals, evecs = self.eigensystem()
        if evals.min() <= 0:
            raise ValueError("state is not faithful; log(rho) undefined")
        return (evecs * np.log(evals)) @ evecs.conj().T


def gibbs_density(h: PauliOperator, temperature: float) -> DensityMatrix:
    """rho = exp(-h/T) / tr(exp(-h/T)) by dense Hermitian diagonalization.

    The largest eigenvalue of -h/T is subtracted before exponentiating, so
    the construction cannot overflow.  A real h matrix (no string with an odd
    number of Y letters) is diagonalized as a real symmetric one; rho and the
    cached eigenvectors are complex either way.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not h.is_selfadjoint():
        raise ValueError("Hamiltonian must be selfadjoint (real coefficients)")
    import scipy.linalg

    hmat = pauli.dense_matrix(h)
    if hmat.imag.any():
        energies, evecs = scipy.linalg.eigh(hmat)
    else:
        energies, evecs = scipy.linalg.eigh(hmat.real, driver="evd")
    exponent = -energies / temperature
    exponent -= exponent.max()
    weights = np.exp(exponent)
    weights /= weights.sum()
    rho = (evecs * weights) @ evecs.conj().T
    out = DensityMatrix(h.n, rho.astype(complex, copy=False))
    order = np.argsort(weights)
    out.eigenvalues = weights[order]
    out.eigenvectors = evecs[:, order].astype(complex, copy=False)
    return out


def expectation(rho: DensityMatrix, p: PauliString) -> float:
    """tr(rho p), exploiting that a Pauli string has one entry per row."""
    if p.n != rho.n:
        raise DimensionMismatch(f"string on {p.n} sites, state on {rho.n}")
    xi, zi = pauli.index_masks(np.array([p.x, p.z], dtype=np.uint64), p.n).tolist()
    dim = 1 << p.n
    idx = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(idx & zi).astype(np.int64) & 1)
    gathered = rho.matrix[idx, idx ^ xi]
    value = pauli.PHASES[(p.x & p.z).bit_count() % 4] * np.dot(gathered, signs)
    return float(value.real)


def required_strings(
    b_basis: Sequence[PauliString], h_terms: Sequence[PauliOperator]
) -> List[PauliString]:
    """The distinct strings whose expectations determine every moment matrix.

    Products b_i b_j cover the Gram matrix and the modular matrix (reversed
    products share base strings), triple products b_i t b_j with t running
    over the strings of each Hamiltonian term cover the commutator moments,
    and the strings of the terms themselves cover the normalization data.
    They come in the closure's deterministic (x, z) mask order.
    """
    if not b_basis:
        return []
    terms = [t for op in h_terms for t in op.terms]
    closure = pauli.product_closure(b_basis, terms)
    return pauli.from_masks(b_basis[0].n, closure.x, closure.z)


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
    (``pauli.canonical_order``), which saving and drawing noise follow.  A
    mask outside the n sites, a string listed twice, a non-finite value and
    an identity value other than exactly 1 raise ValueError.
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
                s = PauliString(self.n, int(self.x[i]), int(self.z[i])).to_text()
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
            raise IncompleteData(PauliString(self.n, int(x[i]), int(z[i])).to_text())
        return self.values[found]

    def save(self, path):
        header = {
            "n": self.n,
            "noise_sigma": repr(self.noise_sigma),
            "seed": "" if self.seed is None else self.seed,
        }
        texts = (s.to_text() for s in pauli.from_masks(self.n, self.x, self.z))
        write_tsv(path, header, zip(texts, map(repr, self.values.tolist())))

    @classmethod
    def load(cls, path) -> "ExpectationTable":
        """Read a table file; anything wrong with it raises BadTable."""
        try:
            header, rows = read_tsv(path)
            if "n" not in header:
                raise ValueError("no 'n' header")
            n = int(header["n"])
            x, z = pauli.masks([PauliString.from_text(text, n) for text, _ in rows])
            values = np.array([float(raw) for _, raw in rows])
            noise_sigma, seed = float(header.get("noise_sigma", 0.0)), header.get("seed")
            return cls(n, x, z, values, noise_sigma, int(seed) if seed else None)
        except ValueError as exc:
            raise BadTable(f"table file {path}: {exc}") from exc


def build_table(rho: DensityMatrix, strings: Iterable[PauliString]) -> ExpectationTable:
    """Evaluate every string exactly; identity is pinned to 1.

    A string with index masks (xi, zi) and y letters Y has
    tr(rho p) = Re(i^y sum_i (-1)^popcount(i & zi) rho[i, i ^ xi]), the
    Walsh-Hadamard transform of the gathered g[i] = rho[i, i ^ xi] read at zi.
    So one transform per distinct xi serves every string that shares it.
    The distinct xi, at most 2^n of them, are gathered in blocks of at most
    ``GATHER_ENTRIES`` entries, so a block never holds more entries than rho.
    """
    strings = list(strings)
    if any(s.n != rho.n for s in strings):
        raise DimensionMismatch(f"strings and state on different site counts (state: {rho.n})")
    x, z = pauli.masks(strings)
    xi = pauli.index_masks(x, rho.n)
    zi = pauli.index_masks(z, rho.n)
    x_masks, which = np.unique(xi, return_inverse=True)
    phases = _PHASE_TABLE[np.bitwise_count(x & z) % 4]
    dim = 1 << rho.n
    basis = np.arange(dim)
    flat = rho.matrix.ravel()
    values = np.empty(len(strings))
    per_block = max(1, GATHER_ENTRIES // dim)
    for start in range(0, len(x_masks), per_block):
        block = x_masks[start : start + per_block]
        transformed = _walsh_hadamard(flat[basis * dim + (basis ^ block[:, None])])
        here = (which >= start) & (which < start + len(block))
        values[here] = (phases[here] * transformed[which[here] - start, zi[here]]).real
    values[(x | z) == 0] = 1.0
    return ExpectationTable(rho.n, x, z, values)


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


def add_noise(table: ExpectationTable, sigma: float, seed) -> ExpectationTable:
    """Independent Gaussian noise of standard deviation sigma per entry.

    One draw per entry, in the table's canonical order, so the result is
    independent of any evaluation schedule.  The identity's draw is
    discarded and its entry stays 1; entries are not clamped to [-1, 1].
    Composing noisy tables adds variances.
    """
    if sigma < 0:
        raise ValueError(f"noise standard deviation must be >= 0, got {sigma}")
    if sigma == 0:
        return replace(table)
    values = table.values + np.random.default_rng(seed).normal(0.0, sigma, len(table.values))
    values[(table.x | table.z) == 0] = 1.0
    combined = math.sqrt(table.noise_sigma**2 + sigma**2)
    seed_repr = seed if isinstance(seed, int) else None
    return ExpectationTable(table.n, table.x, table.z, values, combined, seed_repr)
