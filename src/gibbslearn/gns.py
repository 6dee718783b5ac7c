"""Brute-force GNS construction and open-system oracles at desk scale.

This module is the ground truth the reconstruction pipeline is tested
against.  It favors obviousness over speed: operators become vectors in an
explicitly orthonormalized 4^n-dimensional space, the two commuting
representations and the modular operator are materialized as dense matrices,
and Lindblad dynamics are exponentiated as dense superoperators.

Coordinates: vec() is row-major, so vec(A X B) = (A kron B^T) vec(X) and
tr(A^dag B) = vec(A)^dag vec(B).  The state's inner product <a|b> = omega(a*b)
then reads vec(a)^dag K vec(b) with K = I kron rho^T, and K^{1/2} maps vec
coordinates to an orthonormal basis of the GNS space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from . import pauli
from .errors import DenseLimitExceeded
from .models import random_k_local_hamiltonian
from .pauli import PauliOperator, PauliString
from .states import DensityMatrix

FAITHFUL_TOL = 1e-13
GNS_SITE_LIMIT = 4
DYNAMICS_SITE_LIMIT = 3

OperatorLike = Union[PauliOperator, PauliString, np.ndarray]


def _as_matrix(obj: OperatorLike, n: int) -> np.ndarray:
    if isinstance(obj, PauliString):
        return pauli.string_dense(obj)
    if isinstance(obj, PauliOperator):
        return pauli.dense_matrix(obj)
    return np.asarray(obj, dtype=complex)


def _psd_power(matrix: np.ndarray, power: float) -> np.ndarray:
    evals, evecs = scipy.linalg.eigh(matrix)
    return (evecs * evals**power) @ evecs.conj().T


def _swap_permutation(dim: int) -> np.ndarray:
    """Permutation P with P vec(A) = vec(A^T) for dim x dim matrices."""
    perm = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            perm[j * dim + i, i * dim + j] = 1.0
    return perm


@dataclass
class GnsSpace:
    """Explicit GNS data of a faithful state."""

    n: int
    dim: int
    gram: np.ndarray  # Gram of the canonical Pauli basis under <a|b> = omega(a*b)
    delta: np.ndarray
    log_delta: np.ndarray
    j_matrix: np.ndarray  # antilinear action: J v = j_matrix @ conj(v)
    _khalf: np.ndarray
    _kinvhalf: np.ndarray
    _rho: DensityMatrix

    def vector(self, op: OperatorLike) -> np.ndarray:
        """GNS vector |a> in the orthonormalized coordinates."""
        mat = _as_matrix(op, self.n)
        return self._khalf @ mat.reshape(-1)

    def operator_of(self, v: np.ndarray) -> np.ndarray:
        side = 1 << self.n
        return (self._kinvhalf @ v).reshape(side, side)

    def left_rep(self, op: OperatorLike) -> np.ndarray:
        """pi_l(a): |b> -> |ab|."""
        mat = _as_matrix(op, self.n)
        side = 1 << self.n
        raw = np.kron(mat, np.eye(side))
        return self._khalf @ raw @ self._kinvhalf

    def right_rep(self, op: OperatorLike) -> np.ndarray:
        """pi_r(a): |b> -> |b a*>."""
        mat = _as_matrix(op, self.n)
        side = 1 << self.n
        raw = np.kron(np.eye(side), mat.conj())
        return self._khalf @ raw @ self._kinvhalf

    def gns_hamiltonian(self, h: OperatorLike) -> np.ndarray:
        """H = pi_l(h) - pi_r(h); Hermitian iff h is a symmetry of the state."""
        return self.left_rep(h) - self.right_rep(h)

    def conjugation(self, v: np.ndarray) -> np.ndarray:
        """Modular involution |a> -> |rho^{1/2} a* rho^{-1/2}>, antilinear."""
        return self.j_matrix @ v.conj()

    def span_projection(self, b_ops: Sequence[OperatorLike]) -> np.ndarray:
        """Rows form an orthonormal basis of span(|b_1>, ..., |b_r>)."""
        cols = np.column_stack([self.vector(b) for b in b_ops])
        q, r = np.linalg.qr(cols)
        keep = np.abs(np.diag(r)) > 1e-10 * max(1.0, np.abs(np.diag(r)).max())
        return q[:, keep].conj().T


def build_gns(rho: DensityMatrix) -> GnsSpace:
    """Materialize the GNS space of a faithful state (n <= 4)."""
    n = rho.n
    if n > GNS_SITE_LIMIT:
        raise DenseLimitExceeded(f"GNS construction limited to n <= {GNS_SITE_LIMIT}")
    evals, _ = rho.eigensystem()
    if evals.min() <= FAITHFUL_TOL * evals.max():
        raise ValueError("state is not faithful; GNS inner product degenerate")
    side = 1 << n
    rho_t = rho.matrix.T
    khalf = np.kron(np.eye(side), _psd_power(rho_t, 0.5))
    kinvhalf = np.kron(np.eye(side), _psd_power(rho_t, -0.5))

    space = GnsSpace(
        n=n,
        dim=side * side,
        gram=np.empty(0),
        delta=np.empty(0),
        log_delta=np.empty(0),
        j_matrix=np.empty(0),
        _khalf=khalf,
        _kinvhalf=kinvhalf,
        _rho=rho,
    )

    rho_inv = _psd_power(rho.matrix, -1.0)
    space.delta = space.left_rep(rho.matrix) @ space.right_rep(rho_inv)
    log_rho = rho.log_matrix()
    space.log_delta = space.left_rep(log_rho) - space.right_rep(log_rho)

    # J v = j_matrix @ conj(v), assembled literally from the defining formula
    # |a> -> |rho^{1/2} a^dag rho^{-1/2}>.
    sqrt_rho = _psd_power(rho.matrix, 0.5)
    inv_sqrt_rho_t = _psd_power(rho_t, -0.5)
    swap = _swap_permutation(side)
    space.j_matrix = khalf @ np.kron(sqrt_rho, inv_sqrt_rho_t) @ swap @ kinvhalf.conj()

    basis = pauli.all_strings(n)
    vectors = np.column_stack([space.vector(p) for p in basis])
    space.gram = vectors.conj().T @ vectors
    return space


# --- Lindblad dynamics ------------------------------------------------------


@dataclass
class LindbladSpec:
    """Generator data: jump-basis operators plus coupling matrices.

    The internal-coupling matrix must be anti-Hermitian and the dissipative
    matrix positive semidefinite; both are validated on construction.
    """

    b_ops: List[OperatorLike]
    coupling: np.ndarray  # anti-Hermitian
    dissipation: np.ndarray  # Hermitian PSD

    def __post_init__(self):
        r = len(self.b_ops)
        self.coupling = np.asarray(self.coupling, dtype=complex).reshape(r, r)
        self.dissipation = np.asarray(self.dissipation, dtype=complex).reshape(r, r)
        if np.abs(self.coupling + self.coupling.conj().T).max() > 1e-10:
            raise ValueError("coupling matrix must be anti-Hermitian")
        herm_defect = np.abs(self.dissipation - self.dissipation.conj().T).max()
        if herm_defect > 1e-10:
            raise ValueError("dissipation matrix must be Hermitian")
        if scipy.linalg.eigvalsh(self.dissipation).min() < -1e-10:
            raise ValueError("dissipation matrix must be positive semidefinite")


def _dense_b_ops(spec: LindbladSpec, n: int) -> List[np.ndarray]:
    return [_as_matrix(b, n) for b in spec.b_ops]


def lindblad_apply(spec: LindbladSpec, a: OperatorLike, n: int) -> PauliOperator:
    """Heisenberg-picture generator applied to an observable, dense-backed."""
    amat = _as_matrix(a, n)
    bs = _dense_b_ops(spec, n)
    out = np.zeros_like(amat)
    for i, bi in enumerate(bs):
        bi_dag = bi.conj().T
        for j, bj in enumerate(bs):
            prod = bi_dag @ bj
            m = spec.coupling[i, j]
            lam = spec.dissipation[i, j]
            if m != 0:
                out += -0.5 * m * (prod @ amat - amat @ prod)
            if lam != 0:
                out += lam * (bi_dag @ amat @ bj - 0.5 * (prod @ amat + amat @ prod))
    return pauli.dense_to_operator(out, n, tol=1e-14)


def heisenberg_superoperator(spec: LindbladSpec, n: int) -> np.ndarray:
    """Matrix of the generator acting on vec(a), row-major convention."""
    side = 1 << n
    eye = np.eye(side)
    bs = _dense_b_ops(spec, n)
    sup = np.zeros((side * side, side * side), dtype=complex)
    for i, bi in enumerate(bs):
        bi_dag = bi.conj().T
        for j, bj in enumerate(bs):
            prod = bi_dag @ bj
            m = spec.coupling[i, j]
            lam = spec.dissipation[i, j]
            left = np.kron(prod, eye)
            right = np.kron(eye, prod.T)
            if m != 0:
                sup += -0.5 * m * (left - right)
            if lam != 0:
                sup += lam * (np.kron(bi_dag, bj.T) - 0.5 * (left + right))
    return sup


def schrodinger_superoperator(spec: LindbladSpec, n: int) -> np.ndarray:
    """Adjoint generator acting on vec(rho): the conjugate transpose of the
    Heisenberg superoperator under the Hilbert-Schmidt pairing."""
    return heisenberg_superoperator(spec, n).conj().T


def evolve_state(spec: LindbladSpec, rho_mat: np.ndarray, t: float, n: int) -> np.ndarray:
    if n > DYNAMICS_SITE_LIMIT:
        raise DenseLimitExceeded(
            f"superoperator exponential limited to n <= {DYNAMICS_SITE_LIMIT}"
        )
    side = 1 << n
    sup = schrodinger_superoperator(spec, n)
    vec = scipy.linalg.expm(t * sup) @ rho_mat.reshape(-1)
    return vec.reshape(side, side)


def free_energy(rho_mat: np.ndarray, h_mat: np.ndarray, temperature: float) -> float:
    evals = scipy.linalg.eigvalsh(rho_mat)
    if evals.min() <= 0:
        raise ValueError("free energy undefined for non-positive state")
    entropy = -float(np.sum(evals * np.log(evals)))
    energy = float(np.trace(rho_mat @ h_mat).real)
    return -temperature * entropy + energy


def free_energy_derivative(
    rho: DensityMatrix,
    h: OperatorLike,
    temperature: float,
    spec: LindbladSpec,
    gns: Optional[GnsSpace] = None,
) -> float:
    """First-order free-energy change under the generator, from GNS matrix
    elements of log(Delta) and the GNS Hamiltonian.

    The entropy part carries only the dissipative couplings (log(Delta) is
    Hermitian, which kills its pairing with the internal couplings); the
    energy part keeps both coupling terms, and the whole expression is real
    up to roundoff.  For a Gibbs pair the result vanishes identically since
    T log(Delta) + H = 0.
    """
    space = gns if gns is not None else build_gns(rho)
    n = rho.n
    vecs = np.column_stack([space.vector(b) for b in spec.b_ops])
    h_gns = space.gns_hamiltonian(_as_matrix(h, n))
    log_delta = space.log_delta

    ld = vecs.conj().T @ log_delta @ vecs
    hm = vecs.conj().T @ h_gns @ vecs
    hm_dag = vecs.conj().T @ h_gns.conj().T @ vecs

    lam = spec.dissipation
    m = spec.coupling
    entropy_rate = -np.sum(lam * ld)  # dS/dt
    energy_rate = 0.5 * (np.sum(m * (hm - hm_dag)) + np.sum(lam * (hm + hm_dag)))
    total = -temperature * entropy_rate + energy_rate
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise ArithmeticError(f"free-energy derivative has spurious imaginary part {total}")
    return float(total.real)


# --- stability checks -------------------------------------------------------


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def _log_psd_dense(matrix: np.ndarray) -> np.ndarray:
    evals, evecs = scipy.linalg.eigh(matrix)
    if evals.min() <= 0:
        raise ValueError("matrix log requested for a non-positive matrix")
    return (evecs * np.log(evals)) @ evecs.conj().T


def check_rts(
    rho: DensityMatrix,
    h: OperatorLike,
    temperature: float,
    b_ops: Sequence[OperatorLike],
    tol: float = 1e-9,
    gns: Optional[GnsSpace] = None,
) -> Tuple[bool, float]:
    """Stability of (state, h) at a temperature with respect to the span of b.

    Returns the PSD verdict and the minimum eigenvalue of the compressed
    free-energy form P (T log(Delta) + H) P^dag.
    """
    space = gns if gns is not None else build_gns(rho)
    proj = space.span_projection(b_ops)
    form = temperature * space.log_delta + space.gns_hamiltonian(h)
    compressed = _hermitize(proj @ form @ proj.conj().T)
    min_eig = float(scipy.linalg.eigvalsh(compressed).min())
    scale = max(1.0, float(np.abs(compressed).max()))
    return min_eig >= -tol * scale, min_eig


def check_matrix_eeb(
    rho: DensityMatrix,
    h: OperatorLike,
    temperature: float,
    b_ops: Sequence[OperatorLike],
    gns: Optional[GnsSpace] = None,
) -> Tuple[float, float, bool]:
    """Compare the compressed-log and log-compressed free-energy forms.

    Returns (min eig of T log(P Delta P^dag) + P H P^dag, min eig of
    P (T log Delta + H) P^dag, whether their difference is PSD).  The
    difference is the operator Jensen gap of the log; it vanishes when the
    span is invariant under conjugation by Delta.
    """
    space = gns if gns is not None else build_gns(rho)
    proj = space.span_projection(b_ops)
    pdag = proj.conj().T

    delta_c = _hermitize(proj @ space.delta @ pdag)
    h_c = _hermitize(proj @ space.gns_hamiltonian(h) @ pdag)
    lhs = temperature * _log_psd_dense(delta_c) + h_c
    rhs = _hermitize(proj @ (temperature * space.log_delta + space.gns_hamiltonian(h)) @ pdag)
    gap = lhs - rhs
    gap_min = float(scipy.linalg.eigvalsh(_hermitize(gap)).min())
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return (
        float(scipy.linalg.eigvalsh(_hermitize(lhs)).min()),
        float(scipy.linalg.eigvalsh(rhs).min()),
        gap_min >= -1e-9 * scale,
    )


def check_quasisymmetry(
    rho: DensityMatrix,
    h: OperatorLike,
    b_ops: Sequence[OperatorLike],
    tol: float = 1e-9,
    gns: Optional[GnsSpace] = None,
) -> bool:
    """Two equivalent characterizations, evaluated independently.

    Direct route: omega([b_i^* b_j, h]) = 0 for all basis pairs (polarization
    covers the whole span).  GNS route: the compression of the GNS
    Hamiltonian onto the span is self-adjoint.  Raises if the two routes
    disagree at the tolerance.
    """
    n = rho.n
    h_mat = _as_matrix(h, n)
    b_mats = [_as_matrix(b, n) for b in b_ops]
    direct = 0.0
    for bi in b_mats:
        for bj in b_mats:
            prod = bi.conj().T @ bj
            value = np.trace(rho.matrix @ (prod @ h_mat - h_mat @ prod))
            direct = max(direct, abs(value))

    space = gns if gns is not None else build_gns(rho)
    proj = space.span_projection(b_ops)
    compressed = proj @ space.gns_hamiltonian(h_mat) @ proj.conj().T
    gns_defect = float(np.abs(compressed - compressed.conj().T).max())

    scale = max(1.0, float(np.abs(h_mat).max()))
    verdict_direct = direct <= tol * scale
    verdict_gns = gns_defect <= tol * scale
    if verdict_direct != verdict_gns:
        raise ArithmeticError(
            "quasi-symmetry characterizations disagree: "
            f"direct residual {direct:.3e}, GNS defect {gns_defect:.3e}"
        )
    return verdict_direct


# --- randomized verification battery ----------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_residual: float
    tolerance: float
    instances: int

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: worst residual {self.worst_residual:.3e} "
            f"(tol {self.tolerance:.1e}, {self.instances} instances)"
        )


def _random_faithful_state(n: int, rng) -> DensityMatrix:
    from .states import gibbs_density

    h = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
    temperature = float(rng.uniform(0.5, 4.0))
    return gibbs_density(h, temperature)


def _random_commuting_observable(rho: DensityMatrix, rng) -> np.ndarray:
    evals, evecs = rho.eigensystem()
    diag = rng.normal(0.0, 1.0, size=len(evals))
    return (evecs * diag) @ evecs.conj().T


def _random_lindblad_spec(n: int, rng, r: int = 3) -> LindbladSpec:
    strings = pauli.all_strings(n, include_identity=False)
    picks = rng.choice(len(strings), size=min(r, len(strings)), replace=False)
    b_ops = []
    for idx in picks:
        op = PauliOperator.from_string(strings[idx], 1.0)
        other = strings[int(rng.integers(len(strings)))]
        op = op + PauliOperator.from_string(other, complex(*rng.normal(0, 0.3, 2)))
        b_ops.append(op)
    raw = rng.normal(0, 1, (len(b_ops), len(b_ops))) + 1j * rng.normal(
        0, 1, (len(b_ops), len(b_ops))
    )
    coupling = 0.5 * (raw - raw.conj().T)
    raw2 = rng.normal(0, 1, (len(b_ops), len(b_ops))) + 1j * rng.normal(
        0, 1, (len(b_ops), len(b_ops))
    )
    dissipation = raw2 @ raw2.conj().T / len(b_ops)
    return LindbladSpec(b_ops, coupling, dissipation)


def check_battery_size(n_max: int, instances: int):
    """Refuse a battery on sites outside [1, GNS_SITE_LIMIT] or of no instances."""
    if not 1 <= n_max <= GNS_SITE_LIMIT:
        raise ValueError(
            f"verification battery limited to 1 <= n <= {GNS_SITE_LIMIT}, not n={n_max}"
        )
    if instances < 1:
        raise ValueError(f"verification battery needs at least one instance, not {instances}")


def run_battery(n_max: int = 3, seed: int = 0, instances: int = 100) -> List[CheckResult]:
    """Randomized verification of every GNS, Lindblad and stability identity.

    Each instance draws a fresh faithful state; the reported residual is the
    worst over all instances of a check.  Dynamics checks (superoperator
    exponentials) are kept to n <= 3 regardless of n_max.
    """
    check_battery_size(n_max, instances)
    rng = np.random.default_rng(seed)
    worst: dict = {}

    def record(name, residual, tol):
        prev = worst.get(name, (0.0, tol))
        worst[name] = (max(prev[0], residual), tol)

    for count in range(instances):
        n = 1 + count % n_max
        side = 1 << n
        rho = _random_faithful_state(n, rng)
        space = build_gns(rho)
        scale_d = max(1.0, float(np.abs(space.delta).max()))

        a_op = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
        b_op = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
        a_mat = pauli.dense_matrix(a_op)
        b_mat = pauli.dense_matrix(b_op)

        # commuting left/right representations
        left = space.left_rep(a_mat)
        right = space.right_rep(b_mat)
        record(
            "representations_commute",
            float(np.abs(left @ right - right @ left).max()) / scale_d,
            1e-9,
        )

        # modular operator as a sesquilinear form: <a|Delta|b> = omega(b a*)
        va, vb = space.vector(a_mat), space.vector(b_mat)
        lhs = va.conj() @ space.delta @ vb
        rhs = np.trace(rho.matrix @ b_mat @ a_mat.conj().T)
        record("delta_sesquilinear_form", abs(lhs - rhs) / scale_d, 1e-9)

        # log of the modular operator equals the representation difference
        direct_log = _log_psd_dense(_hermitize(space.delta))
        record(
            "log_delta_expression",
            float(np.abs(direct_log - space.log_delta).max())
            / max(1.0, float(np.abs(space.log_delta).max())),
            1e-9,
        )

        # modular involution: squares to one, flips commuting GNS Hamiltonians
        v = rng.normal(0, 1, space.dim) + 1j * rng.normal(0, 1, space.dim)
        record(
            "j_involution",
            float(np.abs(space.conjugation(space.conjugation(v)) - v).max())
            / float(np.abs(v).max()),
            1e-9,
        )
        h_comm = _random_commuting_observable(rho, rng)
        h_gns = space.gns_hamiltonian(h_comm)
        jv = space.conjugation(va)
        record(
            "j_flips_commuting_hamiltonian",
            abs(jv.conj() @ h_gns @ jv + va.conj() @ h_gns @ va)
            / max(1.0, float(np.abs(h_gns).max())),
            1e-9,
        )

        # spectrum of T log(Delta) + H symmetric about zero for symmetries
        temperature = float(rng.uniform(0.5, 3.0))
        form = temperature * space.log_delta + space.gns_hamiltonian(h_comm)
        spectrum = np.sort(scipy.linalg.eigvalsh(_hermitize(form)))
        record(
            "spectrum_symmetry",
            float(np.abs(spectrum + spectrum[::-1]).max())
            / max(1.0, float(np.abs(spectrum).max())),
            1e-9,
        )

        # Lindblad rates: GNS matrix elements vs direct and finite differences
        spec = _random_lindblad_spec(n, rng)
        h_obs = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
        h_obs_mat = pauli.dense_matrix(h_obs)

        vecs = np.column_stack([space.vector(bo) for bo in spec.b_ops])
        hmat_gns = space.gns_hamiltonian(h_obs_mat)
        hm = vecs.conj().T @ hmat_gns @ vecs
        hm_dag = vecs.conj().T @ hmat_gns.conj().T @ vecs
        energy_rate = 0.5 * (
            np.sum(spec.coupling * (hm - hm_dag)) + np.sum(spec.dissipation * (hm + hm_dag))
        )
        direct_rate = np.trace(
            rho.matrix @ pauli.dense_matrix(lindblad_apply(spec, h_obs_mat, n))
        )
        record(
            "energy_rate_identity",
            abs(energy_rate - direct_rate) / max(1.0, abs(direct_rate)),
            1e-9,
        )

        if n <= DYNAMICS_SITE_LIMIT:
            step = 1e-5
            ld = vecs.conj().T @ space.log_delta @ vecs
            entropy_rate = float((-np.sum(spec.dissipation * ld)).real)

            def entropy_at(t):
                evolved = evolve_state(spec, rho.matrix, t, n)
                evals = scipy.linalg.eigvalsh(evolved)
                return -float(np.sum(evals * np.log(evals)))

            fd_entropy = (entropy_at(step) - entropy_at(-step)) / (2 * step)
            record(
                "entropy_rate_finite_difference",
                abs(entropy_rate - fd_entropy) / max(1.0, abs(fd_entropy)),
                1e-5,
            )

            analytic = free_energy_derivative(rho, h_obs_mat, temperature, spec, gns=space)

            def fe_at(t):
                evolved = evolve_state(spec, rho.matrix, t, n)
                return free_energy(evolved, h_obs_mat, temperature)

            fd_value = (fe_at(step) - fe_at(-step)) / (2 * step)
            record(
                "free_energy_derivative_finite_difference",
                abs(analytic - fd_value) / max(1.0, abs(fd_value)),
                1e-5,
            )

        # Jensen gap: PSD on a restricted span, equality at full span
        strings = pauli.all_strings(n, include_identity=False)
        picks = rng.choice(len(strings), size=min(3, len(strings)), replace=False)
        restricted = [strings[i] for i in picks]
        _, _, gap_ok = check_matrix_eeb(rho, h_obs_mat, temperature, restricted, gns=space)
        record("jensen_gap_psd", 0.0 if gap_ok else 1.0, 0.5)
        full = pauli.all_strings(n)
        lhs_min, rhs_min, _ = check_matrix_eeb(rho, h_obs_mat, temperature, full, gns=space)
        record("jensen_equality_full_span", abs(lhs_min - rhs_min), 1e-8)

        # quasi-symmetry: dual characterizations must agree on symmetric and
        # generic observables alike (the check raises on disagreement)
        try:
            sym_ok = check_quasisymmetry(rho, h_comm, restricted, gns=space)
            record("quasisymmetry_symmetric_case", 0.0 if sym_ok else 1.0, 0.5)
            check_quasisymmetry(rho, h_obs_mat, restricted, gns=space)
            record("quasisymmetry_dual_agreement", 0.0, 0.5)
        except ArithmeticError:
            record("quasisymmetry_dual_agreement", 1.0, 0.5)

        # stability of a Gibbs pair, instability across a temperature mismatch
        from .states import gibbs_density

        h_true = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
        t_true = float(rng.uniform(0.5, 2.5))
        rho_g = gibbs_density(h_true, t_true)
        space_g = build_gns(rho_g)
        ok, min_eig = check_rts(rho_g, h_true, t_true, restricted, gns=space_g)
        record("rts_gibbs_pair", 0.0 if ok else abs(min_eig), 0.5)
        ok_wrong, _ = check_rts(
            rho_g, h_true, 2.0 * t_true, pauli.all_strings(n), gns=space_g
        )
        record("rts_temperature_mismatch", 1.0 if ok_wrong else 0.0, 0.5)

    return [
        CheckResult(name, residual <= tol, residual, tol, instances)
        for name, (residual, tol) in worst.items()
    ]
