"""Independent test oracles: brute-force routes that never touch the
implementation paths they are used to check."""

import math
from functools import reduce

import numpy as np
import scipy.linalg

from gibbslearn.pauli import PauliString, multiply

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_string(string):
    """Dense matrix of a Pauli string by literal tensor products."""
    letters = string.letters
    mats = [PAULI_MATS[letters.get(site, "I")] for site in range(string.n)]
    return reduce(np.kron, mats)


def letters_sort_key(s):
    """The string basis's letter order read off the site-to-letter map, one site at a time."""
    if s.is_identity:
        return (0, 0, 0, ())
    sites = s.support
    first, last = sites[0], sites[-1]
    window = tuple(s.letters.get(site, "I") for site in range(first, last + 1))
    return (1, first, last - first + 1, window)


def mask_sort_key(s):
    """The (x, z) order of tables, table files and operator listings."""
    return (s.x, s.z)


def letters_text(s):
    """The text of a string read off the site-to-letter map, e.g. "X0 Y2" or "I"."""
    return " ".join(f"{s.letters[k]}{k}" for k in sorted(s.letters)) or "I"


def kron_operator(op):
    out = np.zeros((2**op.n, 2**op.n), dtype=complex)
    for string, coeff in op.terms.items():
        out = out + coeff * kron_string(string)
    return out


def golden_max(f, lo, hi, xtol):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def sdp_bisection_oracle(l0, h_mats, w, t_hi=10.0, y_box=10.0, xtol=2e-7):
    """Maximize lambda_min(T L0 + sum y_a H_a) over the normalization plane.

    Nested golden-section search over the free coordinates (the pivot
    coefficient is eliminated by the constraint w . y = -1), exploiting joint
    concavity of the minimum eigenvalue.  Returns (mu, y, T).
    """
    h_mats = np.asarray(h_mats)
    w = np.asarray(w, dtype=float)
    q = len(w)
    pivot = int(np.argmax(np.abs(w)))
    free = [a for a in range(q) if a != pivot]

    def assemble(free_vals, temperature):
        y = np.zeros(q)
        for idx, a in enumerate(free):
            y[a] = free_vals[idx]
        y[pivot] = (-1.0 - float(np.dot(w[free], y[free]))) / w[pivot]
        combo = temperature * l0 + np.tensordot(y, h_mats, axes=(0, 0))
        combo = 0.5 * (combo + combo.conj().T)
        return float(scipy.linalg.eigvalsh(combo).min()), y

    def value(free_vals, temperature):
        return assemble(free_vals, temperature)[0]

    def maximize(prefix, depth):
        if depth == len(free):
            t_opt, val = golden_max(lambda t: value(prefix, t), 0.0, t_hi, xtol)
            return val, prefix, t_opt
        best = None
        lo, hi = -y_box, y_box

        def g(v):
            return maximize(prefix + [v], depth + 1)[0]

        v_opt, _ = golden_max(g, lo, hi, xtol * max(1.0, y_box))
        return maximize(prefix + [v_opt], depth + 1)

    val, free_vals, t_opt = maximize([], 0)
    _, y = assemble(free_vals, t_opt)
    return val, y, t_opt


def mask_strings(n, x, z):
    """The strings of two mask arrays as ``PauliString`` objects, in their order."""
    return [PauliString(n, a, b) for a, b in zip(np.asarray(x).tolist(), np.asarray(z).tolist())]


def read_strings(b, h_terms):
    """The strings the moments read, by the Pauli algebra: (pairs and terms, triples).

    Every b_l b_k and every term string t, then b_l t b_k over every l
    wherever t anticommutes with b_k; the commutator is zero elsewhere.
    """
    terms = {t for op in h_terms for t in op.terms}
    pairs = {multiply(bl, bk)[0] for bl in b for bk in b}
    triples = {
        multiply(multiply(bl, t)[0], bk)[0]
        for t in terms
        for bk in b
        if not t.commutes_with(bk)
        for bl in b
    }
    return pairs | terms, triples


def full_closure(b, h_terms):
    """Every product b_l b_k, t and b_l t b_k, whether or not the moments read it."""
    terms = {t for op in h_terms for t in op.terms}
    out = {multiply(bl, bk)[0] for bl in b for bk in b} | terms
    for bl in b:
        for t in terms:
            blt = multiply(bl, t)[0]
            out |= {multiply(blt, bk)[0] for bk in b}
    return out


_MASK64 = (1 << 64) - 1


def _splitmix_finalizer(h):
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def keyed_normal(keys, x, z):
    """The standard normal draw of the string with masks (x, z) under uint64 keys (k0, k1).

    Python integers and ``math`` only: h = mix(mix(x ^ k0) ^ z), then
    Box-Muller on u1 = ((h >> 11) + 1) 2^-53 and u2 = (mix(h ^ k1) >> 11) 2^-53.
    """
    k0, k1 = (int(k) for k in keys)
    h = _splitmix_finalizer(_splitmix_finalizer(x ^ k0) ^ z)
    u1 = ((h >> 11) + 1) * 2.0**-53
    u2 = (_splitmix_finalizer(h ^ k1) >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
