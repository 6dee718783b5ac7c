"""Moment matrices of the state on the span of the perturbing operators.

Everything here is assembled from an expectation table alone.  The Gram
matrix of the perturbing strings is orthonormalized; in the resulting basis
the modular matrix, the commutator moment matrices, the quasi-symmetry
matrix W and its near-kernel are built exactly as the reconstruction
requires them.

Pauli products are structural: phases and base strings do not depend on the
data.  The assembler therefore precomputes integer index maps once per
(b, h_terms) pair, after which any number of (noisy) tables can be processed
with plain array gathers.

Every phase follows one rule (Aaronson and Gottesman 2004).  With
y(p) = np.bitwise_count(x & z), the number of Y letters of p, a product of strings
p_1 ... p_m equals i^g times the string with masks (x_1 ^ ... ^ x_m,
z_1 ^ ... ^ z_m), where

    g = sum_j y(p_j) - y(product) + 2 sum_{i<j} np.bitwise_count(z_i & x_j)   (mod 4).

The product's masks are those of its entry in the closure, so its y is a
gather.  A commutator needs only the one bracketing b_l t_u b_k: when t_u
commutes with b_k the weight of b_l [t_u, b_k] is zero, and when they
anticommute b_l b_k t_u = -b_l t_u b_k, so the weight is 2 i^g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, GramDegenerate
from .pauli import PHASES, PauliOperator, PauliString, from_masks, masks, product_closure
from .states import ExpectationTable

DEFAULT_GRAM_FLOOR_REL = 1e-10
EPSILON_W_FLOOR = 1e-11

_PHASE_TABLE = np.array(PHASES)
# commutator weight i^g - i^(g+2) = 2 i^g of an anticommuting pair; index 4
# holds the zero weight of a commuting pair
_COMMUTATOR_TABLE = np.append(_PHASE_TABLE - np.roll(_PHASE_TABLE, 2), 0)


@dataclass
class OrthoBasis:
    """Orthonormalizing coefficients against the state's Gram form.

    ``coeffs`` is the Hermitian inverse square root of the (symmetrized)
    Gram matrix G, so coeffs @ G @ coeffs^dag = I; the i-th orthonormal
    operator is the combination of the reference strings with the
    coefficients of the i-th column (equivalently the conjugated i-th row).
    """

    coeffs: np.ndarray
    gram_eigenvalues: np.ndarray  # sorted descending, all above the floor

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class MomentSet:
    """All Step-1/Step-2 matrices plus the thresholds used to build them."""

    delta: np.ndarray
    raw_h_mats: np.ndarray  # (s, r, r), as measured
    w_matrix: np.ndarray
    w_spectrum: np.ndarray
    kernel_coeffs: np.ndarray  # (q, s) real rows
    h_tilde_mats: np.ndarray  # (q, r, r)
    h_tilde_expectations: np.ndarray  # (q,)
    epsilon_w: float

    @property
    def q(self) -> int:
        return self.kernel_coeffs.shape[0]


class MomentAssembler:
    """Structural index maps from (b, h_terms) for fast repeated assembly."""

    def __init__(self, b: Sequence[PauliString], h_terms: Sequence[PauliOperator]):
        if not b:
            raise ValueError("need at least one perturbing operator")
        self.n = b[0].n
        self.b = list(b)
        self.h_terms = list(h_terms)
        for op in self.h_terms:
            if not op.is_selfadjoint():
                raise ValueError("Hamiltonian terms must be selfadjoint")

        # flattened Hamiltonian term structure: u -> (alpha, string, coeff)
        alpha, strings, ct = [], [], []
        for a, op in enumerate(self.h_terms):
            for string, coeff in op.terms.items():
                alpha.append(a)
                strings.append(string)
                ct.append(coeff.real)
        self._alpha = np.array(alpha, dtype=np.int64)
        self._ct = np.array(ct, dtype=float)

        closure = product_closure(self.b, strings)
        self._x, self._z = closure.x, closure.z
        self._pair_idx = closure.pair_idx
        self._triple_idx = closure.triple_idx  # (u, l, k)
        self._term_idx = closure.term_idx

        # phases of every b_l b_k and b_l t_u b_k (module docstring), in uint8:
        # sums wrap modulo 256, a multiple of 4, so every exponent stays exact
        xb, zb = masks(self.b)
        xt, zt = masks(strings)
        r = len(self.b)
        y_b, y_t = np.bitwise_count(xb & zb), np.bitwise_count(xt & zt)
        y_closure = np.bitwise_count(self._x & self._z)
        zx_bb = np.bitwise_count(zb[:, None] & xb[None, :])  # (l, k)
        zx_bt = np.bitwise_count(zb[None, :] & xt[:, None])  # (u, l)
        zx_tb = np.bitwise_count(zt[:, None] & xb[None, :])  # (u, k)
        g_pair = (y_b[:, None] + y_b[None, :] - y_closure[self._pair_idx] + 2 * zx_bb) % 4
        g_triple = (
            y_b[None, :, None]
            + y_t[:, None, None]
            + y_b[None, None, :]
            - y_closure[self._triple_idx]
            + 2 * (zx_bt[:, :, None] + zx_bb[None, :, :] + zx_tb[:, None, :])
        ) % 4
        anti = (zx_tb + np.bitwise_count(xt[:, None] & zb[None, :])) % 2 == 1  # (u, k)

        self._pair_phase = _PHASE_TABLE[g_pair]
        # F[alpha, l, k] sums c_u omega(b_l [t_u, b_k]) over the strings u of h_alpha
        self._comm_weight = _COMMUTATOR_TABLE[np.where(anti[:, None, :], g_triple, 4)]
        self._comm_weight *= self._ct[:, None, None]
        self._single_term_per_alpha = np.array_equal(
            self._alpha, np.arange(len(self.h_terms))
        )

        # structural count of nonzero commutator triples for the W threshold:
        # every (i, alpha, j) with [h_alpha, b_j] structurally nonzero
        pair_nonzero = np.zeros((len(self.h_terms), r), dtype=bool)
        np.logical_or.at(pair_nonzero, self._alpha, anti)
        self.commutator_term_count = int(r * pair_nonzero.sum())

    # -- data-dependent assembly ------------------------------------------

    def required_strings(self) -> List[PauliString]:
        return from_masks(self.n, self._x, self._z)

    def _values(self, table: ExpectationTable) -> np.ndarray:
        if table.n != self.n:
            raise DimensionMismatch(f"table on {table.n} sites, assembler on {self.n}")
        return table.lookup(self._x, self._z)

    def gram(self, table: ExpectationTable) -> np.ndarray:
        """G_ij = omega(b_i^* b_j), symmetrized to absorb noise asymmetry."""
        return self._gram(self._values(table))

    def h_expectations(self, table: ExpectationTable) -> np.ndarray:
        return self._h_expectations(self._values(table))

    def commutator_tensor(self, table: ExpectationTable) -> np.ndarray:
        """F[alpha, l, k] = omega(b_l^* [h_alpha, b_k])."""
        return self._commutator_tensor(self._values(table))

    # the same three, from values already gathered in closure order

    def _gram(self, v: np.ndarray) -> np.ndarray:
        raw = self._pair_phase * v[self._pair_idx]
        return 0.5 * (raw + raw.conj().T)

    def _h_expectations(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.h_terms))
        np.add.at(out, self._alpha, self._ct * v[self._term_idx])
        return out

    def _commutator_tensor(self, v: np.ndarray) -> np.ndarray:
        contrib = self._comm_weight * v[self._triple_idx]
        if self._single_term_per_alpha:
            return contrib
        out = np.zeros((len(self.h_terms), len(self.b), len(self.b)), dtype=complex)
        np.add.at(out, self._alpha, contrib)
        return out

    def moment_set(
        self,
        table: ExpectationTable,
        gram_floor: Optional[float] = None,
        epsilon_w_value: Optional[float] = None,
    ) -> Tuple[OrthoBasis, MomentSet]:
        """Run Steps 1 and 2 on a table; the threshold defaults to the noise formula."""
        if epsilon_w_value is None:
            epsilon_w_value = epsilon_w(table.noise_sigma, self.commutator_term_count)
        v = self._values(table)
        return assemble_from_matrices(
            self._gram(v),
            self._commutator_tensor(v),
            self._h_expectations(v),
            epsilon_w_value,
            gram_floor=gram_floor,
        )


# -- standalone single-step operations ---------------------------------------


def orthonormalize(gram: np.ndarray, gram_floor: Optional[float] = None) -> OrthoBasis:
    """Hermitian inverse square root of the Gram matrix.

    Eigenvalues at or below the floor (relative to the largest by default)
    indicate a noise-corrupted or non-faithful Gram form and raise.
    """
    evals, evecs = scipy.linalg.eigh(gram)
    floor = DEFAULT_GRAM_FLOOR_REL * float(evals[-1]) if gram_floor is None else gram_floor
    if evals[0] <= floor:
        raise GramDegenerate(evals[evals <= floor].tolist(), floor)
    coeffs = (evecs * evals**-0.5) @ evecs.conj().T
    return OrthoBasis(coeffs=coeffs, gram_eigenvalues=evals[::-1].copy())


def delta_from_gram(gram_sym: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    # omega(a_j a_i^*) expands to (C^dag R^T C)_{ij} with R_{kl} = omega(b_k b_l^*);
    # for a self-adjoint basis the reversed products are the Gram data itself,
    # R = G, so Delta = C^dag G^T C.
    delta = coeffs.conj().T @ gram_sym.T @ coeffs
    return 0.5 * (delta + delta.conj().T)


def build_w(raw_h_mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram matrix W of the anti-Hermitian defects of the raw moment matrices.

    Returns W, then the eigenvalues (ascending) and eigenvectors (columns) of
    its real part, from one diagonalization: the Hamiltonian coefficients
    are real.  Negative numerical dust in the eigenvalues is clipped to zero.
    """
    raw = np.asarray(raw_h_mats)
    defects = raw - raw.conj().transpose(0, 2, 1)
    flat = defects.reshape(raw.shape[0], -1)
    w = flat.conj() @ flat.T
    spectrum, eigenvectors = scipy.linalg.eigh(0.5 * (w + w.conj()).real)
    scale = max(1.0, float(np.abs(spectrum).max())) if spectrum.size else 1.0
    spectrum = np.where((spectrum < 0) & (spectrum > -1e-12 * scale), 0.0, spectrum)
    return w, spectrum, eigenvectors


def epsilon_w(sigma_noise: float, m: int) -> float:
    """Noise-calibrated eigenvalue threshold for the quasi-symmetry kernel."""
    if m < 0:
        raise ValueError("term count must be nonnegative")
    return 400.0 * max(sigma_noise**2 * math.sqrt(m), EPSILON_W_FLOOR)


def kernel_basis(
    spectrum: np.ndarray,
    eigenvectors: np.ndarray,
    epsilon: float,
    h_expectations: np.ndarray,
    sym_h_mats: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Near-kernel of W: directions whose commutator moments are Hermitian.

    Takes the ascending eigenvalues and the eigenvectors of the real part of
    W, as ``build_w`` returns them, and keeps the eigenvectors whose
    eigenvalue is below the threshold; q = 0 means no candidate direction
    survives and the caller terminates with the corresponding verdict.
    """
    q = int(np.count_nonzero(spectrum < epsilon))
    kernel_coeffs = eigenvectors[:, :q].T.copy()
    h_tilde_mats = np.einsum("qs,sij->qij", kernel_coeffs, sym_h_mats)
    h_tilde_expectations = kernel_coeffs @ np.asarray(h_expectations)
    return kernel_coeffs, h_tilde_mats, h_tilde_expectations


def assemble_from_matrices(
    gram_sym: np.ndarray,
    f_stack: np.ndarray,
    h_expectations: np.ndarray,
    epsilon_w_value: float,
    gram_floor: Optional[float] = None,
) -> Tuple[OrthoBasis, MomentSet]:
    """Matrix-level pipeline seam: Gram and commutator data already assembled.

    The reconstruction outcome depends only on the span of the perturbing
    operators, so callers may feed data transformed by any invertible real
    recombination of the basis, which keeps the operators self-adjoint.
    """
    ortho = orthonormalize(gram_sym, gram_floor=gram_floor)
    coeffs = ortho.coeffs
    delta = delta_from_gram(gram_sym, coeffs)
    raw = coeffs.conj().T[None, :, :] @ np.asarray(f_stack, dtype=complex) @ coeffs
    sym = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    w_matrix, w_spectrum, w_eigenvectors = build_w(raw)
    kernel_coeffs, h_tilde_mats, h_tilde_exps = kernel_basis(
        w_spectrum, w_eigenvectors, epsilon_w_value, h_expectations, sym
    )
    moment_set = MomentSet(
        delta=delta,
        raw_h_mats=raw,
        w_matrix=w_matrix,
        w_spectrum=w_spectrum,
        kernel_coeffs=kernel_coeffs,
        h_tilde_mats=h_tilde_mats,
        h_tilde_expectations=h_tilde_exps,
        epsilon_w=epsilon_w_value,
    )
    return ortho, moment_set
