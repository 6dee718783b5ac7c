"""Moment matrices of the state on the span of the perturbing operators.

Everything here is assembled from an expectation table alone.  The Gram
matrix of the perturbing strings is orthonormalized; in the resulting basis
the modular matrix, the commutator moment matrices, the quasi-symmetry
matrix W and its near-kernel are built exactly as the reconstruction
requires them.

Pauli products are structural: phases and base strings do not depend on the
data.  The assembler therefore precomputes integer index maps once per
(b, h_terms) pair, after which any number of (noisy) tables can be processed
with plain array gathers.  Its ``strings`` are the products its moments read
(``states.read_products``), the (x, z) masks ``states.required_strings`` gives;
a table needs no other string, and a missing one raises IncompleteData naming it.

A term's commutator moments F_alpha[l, k] = omega(b_l^* [h_alpha, b_k]) vanish
outside the c <= r columns k where some string of h_alpha anticommutes with
b_k, so they are kept as per-term column factors and never as a dense
(s, r, r) tensor; Step 2 works on the factors (``assemble_from_matrices``).
W, a sum over the entries of the defects D_alpha = M_alpha - M_alpha^dag,
is summed over blocks of c rows of D (``defect_rows``, ``build_w``), so Step 2
holds no (s, r, r) array at all.

Every phase is ``pauli.phase_exponent``, the product rule of Aaronson and
Gottesman (2004) for two strings: b_l b_k = i^g(b_l, b_k) (b_l b_k as a
string), and a triple is two products, so b_l t_u b_k = b_l (t_u b_k) has
the phase i^(g(t_u, b_k) + g(b_l, t_u b_k)).  A commutator needs only the one
bracketing b_l t_u b_k: when t_u commutes with b_k, b_l [t_u, b_k] is zero
and the triple is never built, and when they anticommute
b_l b_k t_u = -b_l t_u b_k, so the weight is 2 i^g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, GibbsLearnError, GramDegenerate
from .pauli import PHASE_TABLE, PauliOperator, PauliString, check_mask_limit, masks, phase_exponent
from .states import ExpectationTable, read_products

DEFAULT_GRAM_FLOOR_REL = 1e-10
EPSILON_W_FLOOR = 1e-11

# commutator weight i^g - i^(g+2) = 2 i^g of an anticommuting pair
_COMMUTATOR_TABLE = PHASE_TABLE - np.roll(PHASE_TABLE, 2)


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
        check_mask_limit(self.n, "moment assembler")
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

        xb, zb = masks(self.b)
        xt, zt = masks(strings)
        (u, k), self.strings, (self._pair_idx, self._triple_idx, self._term_idx) = (
            read_products(xb, zb, xt, zt)
        )

        # phases of every b_l b_k and, as b_l (t_u b_k), of every b_l t_u b_k (module docstring)
        self._pair_phase = PHASE_TABLE[phase_exponent(xb[:, None], zb[:, None], xb, zb)]
        x_tb, z_tb = xt[u] ^ xb[k], zt[u] ^ zb[k]  # (p,)
        g_triple = (
            phase_exponent(xt[u], zt[u], xb[k], zb[k])[:, None]
            + phase_exponent(xb, zb, x_tb[:, None], z_tb[:, None])
        ) % 4
        # c_u omega(b_l [t_u, b_k]) = c_u 2 i^g omega(b_l t_u b_k) on the pair (u, k)
        self._comm_weight = _COMMUTATOR_TABLE[g_triple] * self._ct[u, None]

        # F_alpha = F[alpha] is zero outside the columns K_alpha: the b_k that some
        # string of h_alpha anticommutes with.  ``columns[alpha]`` lists K_alpha in
        # ascending order, padded with -1 to the longest list, and pair (u, k)
        # scatters into the slot (alpha_u, j) with K_alpha[j] = k
        r = len(self.b)
        keys, slot = np.unique(self._alpha[u] * r + k, return_inverse=True)
        key_alpha, key_k = np.divmod(keys, r)
        key_j = np.arange(len(keys)) - np.searchsorted(key_alpha, key_alpha)
        self.columns = np.full((len(self.h_terms), int(key_j.max(initial=-1)) + 1), -1)
        self.columns[key_alpha, key_j] = key_k
        self._comm_slot = (self._alpha[u], key_j[slot])

        # structural count of nonzero commutator triples for the W threshold:
        # every (i, alpha, j) with [h_alpha, b_j] structurally nonzero
        self.commutator_term_count = r * len(keys)

    # -- data-dependent assembly ------------------------------------------

    def matrices(self, table: ExpectationTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Gram matrix, commutator factors and term expectations, from one gather of the table.

        G_ij = omega(b_i^* b_j), symmetrized to absorb noise asymmetry;
        factors[alpha] = F_alpha[:, K_alpha] with K_alpha = ``columns[alpha]``,
        of F_alpha[l, k] = omega(b_l^* [h_alpha, b_k]), and padding columns of
        exact zeros; h_alpha = omega(h_alpha).
        """
        if table.n != self.n:
            raise DimensionMismatch(f"table on {table.n} sites, assembler on {self.n}")
        v = table.lookup(*self.strings)
        raw = self._pair_phase * v[self._pair_idx]
        gram = 0.5 * (raw + raw.conj().T)
        # F_alpha[:, k] sums c_u omega(b_l [t_u, b_k]) over the strings u of h_alpha, in u order;
        # held as (s, c, r) rows, so the (s, r, c) factors are a transposed view
        rows = np.zeros((len(self.h_terms), self.columns.shape[1], len(self.b)), dtype=complex)
        np.add.at(rows, self._comm_slot, self._comm_weight * v[self._triple_idx])
        h_expectations = np.zeros(len(self.h_terms))
        np.add.at(h_expectations, self._alpha, self._ct * v[self._term_idx])
        return gram, rows.transpose(0, 2, 1), h_expectations

    def moment_set(
        self,
        table: ExpectationTable,
        gram_floor: Optional[float] = None,
        epsilon_w_value: Optional[float] = None,
    ) -> Tuple[OrthoBasis, MomentSet]:
        """Run Steps 1 and 2 on a table; the threshold defaults to the noise formula.

        A threshold that is not finite and positive raises GibbsLearnError: an
        infinite one admits every direction and one at or below 0 none.  With
        the default this is a noise level that sends the formula to infinity.
        """
        default = epsilon_w_value is None
        if default:
            epsilon_w_value = epsilon_w(table.noise_sigma, self.commutator_term_count)
        if not (math.isfinite(epsilon_w_value) and epsilon_w_value > 0):
            if default:
                raise GibbsLearnError(
                    f"noise level {table.noise_sigma!r} overflows the W threshold "
                    f"400 sigma^2 sqrt(m) with m = {self.commutator_term_count}"
                )
            raise GibbsLearnError(f"W threshold {epsilon_w_value!r}: must be finite and positive")
        gram, factors, h_expectations = self.matrices(table)
        return assemble_from_matrices(
            gram, factors, self.columns, h_expectations, epsilon_w_value, gram_floor=gram_floor
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


def defect_rows(coeffs: np.ndarray, factors: np.ndarray, columns: np.ndarray, height: int):
    """Row blocks, from the diagonal on, of the defects D_a = M_a - M_a^dag of M_a = C^dag F_a C.

    F_a is given by its factor F_a[:, K_a] = ``factors[a]`` (s, r, c) on the
    columns K_a = ``columns[a]``.  With L_a = C^dag F_a[:, K_a] and the gather
    R_a = C[K_a, :], M_a = L_a R_a, so rows i to i + height of D_a are
    [L_a[rows, :] | -(R_a[:, rows])^dag] [R_a; L_a^dag], a batched product of
    inner size 2c.  The rows of L_a are the conjugated columns of L_a^dag, so
    [R_a; L_a^dag] (s, 2c, r) is the one full-height array.  D_a is
    anti-Hermitian, so its upper triangle determines it: each block is
    D[:, i:i + height, i:], yielded as (i, block) top to bottom (the last
    may be shorter), and the s r^2 entries of D are never held together.
    """
    s, r, c = factors.shape
    right = np.empty((s, 2 * c, r), dtype=complex)
    right[:, :c] = coeffs[columns]
    # L_a^dag = conj(F_a[:, K_a]^T conj(C)), all terms in one gemm
    right[:, c:] = (np.reshape(factors.transpose(0, 2, 1), (s * c, r)) @ coeffs.conj()).reshape(s, c, r)
    np.conjugate(right[:, c:], out=right[:, c:])
    for start in range(0, r, height):
        rows = right[:, :, start : start + height].conj().transpose(0, 2, 1)
        left = np.concatenate([rows[:, :, c:], -rows[:, :, :c]], axis=2)
        yield start, left @ right[:, :, start:]


def build_w(coeffs: np.ndarray, factors: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The quasi-symmetry matrix W_ab = Re tr(D_a^dag D_b) of the defects of ``defect_rows``.

    W is real because the Hamiltonian coefficients are, and a sum over the
    entries of D, taken over blocks of max(1, c) rows, at most as many
    entries as L: each adds the product of its float view with its
    transpose.  D is anti-Hermitian, so an entry right of a block's diagonal
    square adds what its mirror image below the diagonal does, and counts
    twice: about half of D's 2 s r^2 c and W's 2 s^2 r^2 multiply-adds.
    """
    s, _, c = factors.shape
    w = np.zeros((s, s))
    for _, block in defect_rows(coeffs, factors, columns, max(1, c)):
        block[:, :, block.shape[1] :] *= math.sqrt(2.0)
        flat = block.view(float).reshape(s, -1)
        w += flat @ flat.T
    return w


def _eigensystem(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, negative numerical dust clipped to zero) and eigenvectors of W."""
    spectrum, eigenvectors = scipy.linalg.eigh(w)
    scale = max(1.0, float(np.abs(spectrum).max())) if spectrum.size else 1.0
    spectrum = np.where((spectrum < 0) & (spectrum > -1e-12 * scale), 0.0, spectrum)
    return spectrum, eigenvectors


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
    coeffs: np.ndarray,
    factors: np.ndarray,
    columns: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Near-kernel of W: directions whose commutator moments are Hermitian.

    Takes the ascending eigenvalues and the eigenvectors (columns) of W
    and keeps the eigenvectors whose
    eigenvalue is below the threshold; q = 0 means no candidate direction
    survives and the caller terminates with the corresponding verdict.
    For each kept direction k_a, H~_a = herm(C^dag (sum_alpha k_a,alpha F_alpha) C)
    is formed from the factors (columns of -1 are padding) in the reference
    basis: q r^2 memory.
    """
    q = int(np.count_nonzero(spectrum < epsilon))
    kernel_coeffs = eigenvectors[:, :q].T.copy()
    r = factors.shape[1]
    # sum_alpha k_a,alpha F_alpha column by column of F: slot (alpha, j) fills column
    # K_alpha[j], and the slots of column k form rank-ordered rows of one batched product
    alpha, j = np.nonzero(columns >= 0)
    column = columns[alpha, j]
    order = np.argsort(column, kind="stable")
    alpha, j, column = alpha[order], j[order], column[order]
    rank = np.arange(len(column)) - np.searchsorted(column, column)
    width = int(rank.max(initial=-1)) + 1
    weights = np.zeros((r, q, width))
    weights[column, :, rank] = kernel_coeffs[:, alpha].T
    slots = np.zeros((r, width, r), dtype=complex)
    slots[column, rank] = factors[alpha, :, j]
    kernel_f = (weights @ slots).transpose(1, 2, 0)  # (q, r, r), column k from batch k
    del weights, slots
    h_tilde_mats = np.empty((q, r, r), dtype=complex)
    for a, f in enumerate(kernel_f):
        moment = coeffs.conj().T @ f @ coeffs
        h_tilde_mats[a] = 0.5 * (moment + moment.conj().T)
    h_tilde_expectations = kernel_coeffs @ np.asarray(h_expectations)
    return kernel_coeffs, h_tilde_mats, h_tilde_expectations


def assemble_from_matrices(
    gram_sym: np.ndarray,
    factors: np.ndarray,
    columns: np.ndarray,
    h_expectations: np.ndarray,
    epsilon_w_value: float,
    gram_floor: Optional[float] = None,
) -> Tuple[OrthoBasis, MomentSet]:
    """Matrix-level pipeline seam: Gram and commutator data already assembled.

    The commutator moments come as factors F_a[:, K_a] (s, r, c) on column
    lists K_a (s, c), as ``MomentAssembler.matrices`` and ``columns`` give
    them; dense F passes with every K_a = 0, ..., r - 1.
    The reconstruction outcome depends only on the span of the perturbing
    operators, so callers may feed data transformed by any invertible real
    recombination of the basis, which keeps the operators self-adjoint.
    """
    ortho = orthonormalize(gram_sym, gram_floor=gram_floor)
    coeffs = ortho.coeffs
    delta = delta_from_gram(gram_sym, coeffs)
    w_spectrum, w_eigenvectors = _eigensystem(build_w(coeffs, factors, columns))
    kernel_coeffs, h_tilde_mats, h_tilde_exps = kernel_basis(
        w_spectrum, w_eigenvectors, epsilon_w_value, h_expectations, coeffs, factors, columns
    )
    moment_set = MomentSet(
        delta=delta,
        w_spectrum=w_spectrum,
        kernel_coeffs=kernel_coeffs,
        h_tilde_mats=h_tilde_mats,
        h_tilde_expectations=h_tilde_exps,
        epsilon_w=epsilon_w_value,
    )
    return ortho, moment_set
