"""Spin-chain model builders used by the CLI and the test harness."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .pauli import PauliOperator, PauliString, enumerate_geometric_k_local


def xxz_chain(n: int, delta: float = 0.5) -> PauliOperator:
    """Anisotropic Heisenberg ferromagnet on an open chain: -(XX + YY + delta * ZZ) per bond."""
    if n < 2:
        raise ValueError("chain needs at least two sites")
    terms = []
    for i in range(n - 1):
        terms.append((-1.0, f"X{i} X{i+1}"))
        terms.append((-1.0, f"Y{i} Y{i+1}"))
        terms.append((-delta, f"Z{i} Z{i+1}"))
    return PauliOperator.from_terms(n, terms)


def string_basis_operators(strings: Sequence[PauliString]) -> List[PauliOperator]:
    """Each basis string as a unit-coefficient operator (variational terms)."""
    return [PauliOperator.from_string(s, 1.0) for s in strings]


def coefficient_vector(h: PauliOperator, strings: Sequence[PauliString]) -> np.ndarray:
    """Real coefficients of a selfadjoint operator on a string basis.

    Every term of h must lie in the basis, otherwise the vector would
    misrepresent the operator.
    """
    lookup = set(strings)
    for string in h.terms:
        if string not in lookup:
            raise ValueError(f"operator term {string.to_text()} outside the basis")
    return np.array([h.coefficient(s).real for s in strings])


def random_k_local_hamiltonian(
    n: int,
    k: int,
    rng: np.random.Generator,
    coeff_norm: float = 1.0,
    strings: Optional[Sequence[PauliString]] = None,
) -> Tuple[PauliOperator, np.ndarray, List[PauliString]]:
    """Random selfadjoint combination of geometrically k-local strings.

    The coefficient vector is normalized to the requested Euclidean norm;
    returns (operator, coefficients, basis strings).
    """
    basis = list(strings) if strings is not None else enumerate_geometric_k_local(n, k)
    coeffs = rng.normal(0.0, 1.0, size=len(basis))
    coeffs *= coeff_norm / np.linalg.norm(coeffs)
    op = PauliOperator(n, dict(zip(basis, coeffs)))
    return op, coeffs, basis
