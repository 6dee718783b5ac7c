"""Brute-force GNS construction and open-system oracles at desk scale.

This module is the ground truth the reconstruction pipeline is tested
against.  It favors obviousness over speed: operators become vectors in an
explicitly orthonormalized 4^n-dimensional space, the two commuting
representations and the modular operator are materialized as dense matrices,
and Lindblad dynamics are exponentiated as dense superoperators.

Coordinates: vec() is row-major, so vec(A X B) = (A kron B^T) vec(X) and
tr(A^dag B) = vec(A)^dag vec(B).  The state's inner product <a|b> = omega(a*b)
then reads vec(a)^dag K vec(b) with K = I kron rho^T, and K^{1/2} maps vec
coordinates to an orthonormal basis of the GNS space.  Every function of
the state a space needs (rho^{1/2}, rho^{-1/2}, rho^{-1}, log rho and their
transposes) comes from one eigendecomposition of rho.  States, operators and
the Heisenberg generator's output are plain dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from . import pauli
from .errors import DenseLimitExceeded
from .models import random_k_local_hamiltonian
from .pauli import PauliOperator, PauliString
from .states import gibbs_density, n_sites

FAITHFUL_TOL = 1e-13
GNS_SITE_LIMIT = 4
DYNAMICS_SITE_LIMIT = 3
CHECK_TOL = 1e-9  # relative tolerance of the stability and quasi-symmetry checks

OperatorLike = Union[PauliOperator, PauliString, np.ndarray]


def _as_matrix(obj: OperatorLike) -> np.ndarray:
    if isinstance(obj, PauliString):
        return pauli.dense_matrix(PauliOperator.from_string(obj))
    if isinstance(obj, PauliOperator):
        return pauli.dense_matrix(obj)
    return np.asarray(obj, dtype=complex)


def _swap_permutation(dim: int) -> np.ndarray:
    """Permutation P with P vec(A) = vec(A^T) for dim x dim matrices."""
    return np.eye(dim * dim)[np.arange(dim * dim).reshape(dim, dim).T.ravel()]


@dataclass
class GnsSpace:
    """Explicit GNS data of a faithful state."""

    n: int
    dim: int
    delta: np.ndarray
    log_delta: np.ndarray
    j_matrix: np.ndarray  # antilinear action: J v = j_matrix @ conj(v)
    rho: np.ndarray
    _khalf: np.ndarray
    _kinvhalf: np.ndarray

    def vector(self, op: OperatorLike) -> np.ndarray:
        """GNS vector |a> in the orthonormalized coordinates."""
        mat = _as_matrix(op)
        return self._khalf @ mat.reshape(-1)

    def operator_of(self, v: np.ndarray) -> np.ndarray:
        side = 1 << self.n
        return (self._kinvhalf @ v).reshape(side, side)

    def left_rep(self, op: OperatorLike) -> np.ndarray:
        """pi_l(a): |b> -> |ab|."""
        mat = _as_matrix(op)
        side = 1 << self.n
        raw = np.kron(mat, np.eye(side))
        return self._khalf @ raw @ self._kinvhalf

    def right_rep(self, op: OperatorLike) -> np.ndarray:
        """pi_r(a): |b> -> |b a*>."""
        mat = _as_matrix(op)
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


def build_gns(rho: np.ndarray) -> GnsSpace:
    """Materialize the GNS space of a faithful state, a 2^n x 2^n matrix (n <= 4)."""
    n = n_sites(rho)
    if n > GNS_SITE_LIMIT:
        raise DenseLimitExceeded(f"GNS construction limited to n <= {GNS_SITE_LIMIT}")
    evals, evecs = scipy.linalg.eigh(rho)
    if evals.min() <= FAITHFUL_TOL * evals.max():
        raise ValueError("state is not faithful; GNS inner product degenerate")

    def of_rho(values: np.ndarray) -> np.ndarray:
        """The function of rho with these values on its eigenvectors."""
        return (evecs * values) @ evecs.conj().T

    sqrt_rho = of_rho(np.sqrt(evals))
    inv_sqrt_rho = of_rho(1.0 / np.sqrt(evals))
    side = 1 << n
    khalf = np.kron(np.eye(side), sqrt_rho.T)
    kinvhalf = np.kron(np.eye(side), inv_sqrt_rho.T)

    space = GnsSpace(
        n=n,
        dim=side * side,
        delta=np.empty(0),
        log_delta=np.empty(0),
        j_matrix=np.empty(0),
        rho=rho,
        _khalf=khalf,
        _kinvhalf=kinvhalf,
    )

    space.delta = space.left_rep(rho) @ space.right_rep(of_rho(1.0 / evals))
    log_rho = of_rho(np.log(evals))
    space.log_delta = space.left_rep(log_rho) - space.right_rep(log_rho)

    # J v = j_matrix @ conj(v), assembled literally from the defining formula
    # |a> -> |rho^{1/2} a^dag rho^{-1/2}>.
    swap = _swap_permutation(side)
    space.j_matrix = khalf @ np.kron(sqrt_rho, inv_sqrt_rho.T) @ swap @ kinvhalf.conj()
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


def lindblad_apply(spec: LindbladSpec, a: OperatorLike) -> np.ndarray:
    """The dense matrix of the Heisenberg-picture generator applied to an observable."""
    amat = _as_matrix(a)
    bs = [_as_matrix(b) for b in spec.b_ops]
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
    return out


def heisenberg_superoperator(spec: LindbladSpec, n: int) -> np.ndarray:
    """Matrix of the generator acting on vec(a), row-major convention."""
    side = 1 << n
    eye = np.eye(side)
    bs = [_as_matrix(b) for b in spec.b_ops]
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


def evolve_state(spec: LindbladSpec, rho_mat: np.ndarray, t: float, n: int) -> np.ndarray:
    if n > DYNAMICS_SITE_LIMIT:
        raise DenseLimitExceeded(
            f"superoperator exponential limited to n <= {DYNAMICS_SITE_LIMIT}"
        )
    side = 1 << n
    # the Schrodinger-picture generator on vec(rho) is the adjoint of the
    # Heisenberg one under the Hilbert-Schmidt pairing
    sup = heisenberg_superoperator(spec, n).conj().T
    vec = scipy.linalg.expm(t * sup) @ rho_mat.reshape(-1)
    return vec.reshape(side, side)


def free_energy(rho_mat: np.ndarray, h_mat: np.ndarray, temperature: float) -> float:
    evals = scipy.linalg.eigvalsh(rho_mat)
    if evals.min() <= 0:
        raise ValueError("free energy undefined for non-positive state")
    entropy = -float(np.sum(evals * np.log(evals)))
    energy = float(np.trace(rho_mat @ h_mat).real)
    return -temperature * entropy + energy


def gns_rates(space: GnsSpace, h: OperatorLike, spec: LindbladSpec) -> Tuple[complex, complex]:
    """Entropy rate dS/dt and energy rate d<h>/dt under the generator, from
    GNS matrix elements of log(Delta) and the GNS Hamiltonian.

    The entropy rate carries only the dissipative couplings (log(Delta) is
    Hermitian, which kills its pairing with the internal couplings); the
    energy rate keeps both coupling terms.  Both are real up to roundoff.
    """
    vecs = np.column_stack([space.vector(b) for b in spec.b_ops])
    h_gns = space.gns_hamiltonian(h)
    ld = vecs.conj().T @ space.log_delta @ vecs
    hm = vecs.conj().T @ h_gns @ vecs
    hm_dag = vecs.conj().T @ h_gns.conj().T @ vecs

    lam = spec.dissipation
    entropy_rate = -np.sum(lam * ld)
    energy_rate = 0.5 * (np.sum(spec.coupling * (hm - hm_dag)) + np.sum(lam * (hm + hm_dag)))
    return entropy_rate, energy_rate


def free_energy_derivative(
    space: GnsSpace, h: OperatorLike, temperature: float, spec: LindbladSpec
) -> float:
    """First-order free-energy change -T dS/dt + d<h>/dt under the generator.

    For a Gibbs pair the result vanishes identically since T log(Delta) + H = 0.
    """
    entropy_rate, energy_rate = gns_rates(space, h, spec)
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
    space: GnsSpace, h: OperatorLike, temperature: float, b_ops: Sequence[OperatorLike]
) -> Tuple[bool, float]:
    """Stability of (state, h) at a temperature with respect to the span of b.

    Returns the PSD verdict and the minimum eigenvalue of the compressed
    free-energy form P (T log(Delta) + H) P^dag.
    """
    proj = space.span_projection(b_ops)
    form = temperature * space.log_delta + space.gns_hamiltonian(h)
    compressed = _hermitize(proj @ form @ proj.conj().T)
    min_eig = float(scipy.linalg.eigvalsh(compressed).min())
    scale = max(1.0, float(np.abs(compressed).max()))
    return min_eig >= -CHECK_TOL * scale, min_eig


def check_matrix_eeb(
    space: GnsSpace, h: OperatorLike, temperature: float, b_ops: Sequence[OperatorLike]
) -> Tuple[float, float, bool]:
    """Compare the compressed-log and log-compressed free-energy forms.

    Returns (min eig of T log(P Delta P^dag) + P H P^dag, min eig of
    P (T log Delta + H) P^dag, whether their difference is PSD).  The
    difference is the operator Jensen gap of the log; it vanishes when the
    span is invariant under conjugation by Delta.
    """
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
        gap_min >= -CHECK_TOL * scale,
    )


def check_quasisymmetry(space: GnsSpace, h: OperatorLike, b_ops: Sequence[OperatorLike]) -> bool:
    """Two equivalent characterizations, evaluated independently.

    Direct route: omega([b_i^* b_j, h]) = 0 for all basis pairs (polarization
    covers the whole span).  GNS route: the compression of the GNS
    Hamiltonian onto the span is self-adjoint.  Raises if the two routes
    disagree at the tolerance.
    """
    h_mat = _as_matrix(h)
    b_mats = [_as_matrix(b) for b in b_ops]
    direct = 0.0
    for bi in b_mats:
        for bj in b_mats:
            prod = bi.conj().T @ bj
            value = np.trace(space.rho @ (prod @ h_mat - h_mat @ prod))
            direct = max(direct, abs(value))

    proj = space.span_projection(b_ops)
    compressed = proj @ space.gns_hamiltonian(h_mat) @ proj.conj().T
    gns_defect = float(np.abs(compressed - compressed.conj().T).max())

    scale = max(1.0, float(np.abs(h_mat).max()))
    verdict_direct = direct <= CHECK_TOL * scale
    verdict_gns = gns_defect <= CHECK_TOL * scale
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


def _random_faithful_state(n: int, rng) -> np.ndarray:
    h = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
    temperature = float(rng.uniform(0.5, 4.0))
    return gibbs_density(h, temperature)


def _random_commuting_observable(rho: np.ndarray, rng) -> np.ndarray:
    evals, evecs = scipy.linalg.eigh(rho)
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


def check_battery_args(n_max: int, instances: int, seed: int):
    """Refuse a battery on sites outside [1, GNS_SITE_LIMIT], of no instances or a negative seed."""
    if not 1 <= n_max <= GNS_SITE_LIMIT:
        raise ValueError(
            f"verification battery limited to 1 <= n <= {GNS_SITE_LIMIT}, not n={n_max}"
        )
    if instances < 1:
        raise ValueError(f"verification battery needs at least one instance, not {instances}")
    if seed < 0:
        raise ValueError(f"verification battery needs a nonnegative seed, not {seed}")


def run_battery(n_max: int = 3, seed: int = 0, instances: int = 100) -> List[CheckResult]:
    """Randomized verification of every GNS, Lindblad and stability identity.

    Each instance draws a fresh faithful state; the reported residual is the
    worst over all instances of a check.  Dynamics checks (superoperator
    exponentials) are kept to n <= 3 regardless of n_max.
    """
    check_battery_args(n_max, instances, seed)
    rng = np.random.default_rng(seed)
    worst: dict = {}

    def record(name, residual, tol):
        prev = worst.get(name, (0.0, tol))
        worst[name] = (max(prev[0], residual), tol)

    for count in range(instances):
        n = 1 + count % n_max
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
        rhs = np.trace(rho @ b_mat @ a_mat.conj().T)
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

        entropy_rate, energy_rate = gns_rates(space, h_obs_mat, spec)
        direct_rate = np.trace(rho @ lindblad_apply(spec, h_obs_mat))
        record(
            "energy_rate_identity",
            abs(energy_rate - direct_rate) / max(1.0, abs(direct_rate)),
            1e-9,
        )

        if n <= DYNAMICS_SITE_LIMIT:
            step = 1e-5
            evolved = [evolve_state(spec, rho, t, n) for t in (step, -step)]
            entropies = [-float(np.sum(e * np.log(e))) for e in map(scipy.linalg.eigvalsh, evolved)]
            fd_entropy = (entropies[0] - entropies[1]) / (2 * step)
            record(
                "entropy_rate_finite_difference",
                abs(entropy_rate.real - fd_entropy) / max(1.0, abs(fd_entropy)),
                1e-5,
            )

            analytic = free_energy_derivative(space, h_obs_mat, temperature, spec)
            free_energies = [free_energy(e, h_obs_mat, temperature) for e in evolved]
            fd_value = (free_energies[0] - free_energies[1]) / (2 * step)
            record(
                "free_energy_derivative_finite_difference",
                abs(analytic - fd_value) / max(1.0, abs(fd_value)),
                1e-5,
            )

        # Jensen gap: PSD on a restricted span, equality at full span
        strings = pauli.all_strings(n, include_identity=False)
        picks = rng.choice(len(strings), size=min(3, len(strings)), replace=False)
        restricted = [strings[i] for i in picks]
        _, _, gap_ok = check_matrix_eeb(space, h_obs_mat, temperature, restricted)
        record("jensen_gap_psd", 0.0 if gap_ok else 1.0, 0.5)
        full = pauli.all_strings(n)
        lhs_min, rhs_min, _ = check_matrix_eeb(space, h_obs_mat, temperature, full)
        record("jensen_equality_full_span", abs(lhs_min - rhs_min), 1e-8)

        # quasi-symmetry: dual characterizations must agree on symmetric and
        # generic observables alike (the check raises on disagreement)
        try:
            sym_ok = check_quasisymmetry(space, h_comm, restricted)
            record("quasisymmetry_symmetric_case", 0.0 if sym_ok else 1.0, 0.5)
            check_quasisymmetry(space, h_obs_mat, restricted)
            record("quasisymmetry_dual_agreement", 0.0, 0.5)
        except ArithmeticError:
            record("quasisymmetry_dual_agreement", 1.0, 0.5)

        # stability of a Gibbs pair, instability across a temperature mismatch
        h_true = random_k_local_hamiltonian(n, n, rng, coeff_norm=0.75)[0]
        t_true = float(rng.uniform(0.5, 2.5))
        space_g = build_gns(gibbs_density(h_true, t_true))
        ok, min_eig = check_rts(space_g, h_true, t_true, restricted)
        record("rts_gibbs_pair", 0.0 if ok else abs(min_eig), 0.5)
        ok_wrong, _ = check_rts(space_g, h_true, 2.0 * t_true, pauli.all_strings(n))
        record("rts_temperature_mismatch", 1.0 if ok_wrong else 0.0, 0.5)

    return [
        CheckResult(name, residual <= tol, residual, tol, instances)
        for name, (residual, tol) in worst.items()
    ]
