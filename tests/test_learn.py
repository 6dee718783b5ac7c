import math
import pickle

import numpy as np
import pytest

from gibbslearn.errors import (
    DeltaNotPositive,
    GibbsLearnError,
    GramDegenerate,
    IncompleteData,
    NormalizationDegenerate,
    SolverFailure,
)
from gibbslearn.learn import (
    ReconstructOptions,
    Verdict,
    evaluate_recovery,
    reconstruct,
    recovery_angle,
    stability_problem,
    temperature_ratio,
    verdict,
)
from gibbslearn.moments import MomentAssembler
from gibbslearn.models import (
    coefficient_vector,
    random_k_local_hamiltonian,
    string_basis_operators,
    xxz_chain,
)
from gibbslearn.pauli import (
    PauliOperator,
    all_strings,
    enumerate_geometric_k_local,
    masks,
)
from gibbslearn.sdp import SdpOptions, SdpProblem, SolverStatus, solve
from gibbslearn.states import (
    ExpectationTable,
    add_noise,
    build_table,
    gibbs_density,
    required_strings,
)

from oracles import full_closure, letters_sort_key, mask_strings, read_strings


@pytest.mark.parametrize(
    "error, message, attrs",
    [
        (GramDegenerate([1e-12, -3e-13], 1e-10),
         "Gram matrix has 2 eigenvalue(s) <= floor 1.000e-10: [1e-12, -3e-13]",
         {"eigenvalues": [1e-12, -3e-13], "floor": 1e-10}),
        (DeltaNotPositive([2e-15], 1e-14),
         "modular matrix has 1 eigenvalue(s) <= floor 1.000e-14: [2e-15]",
         {"eigenvalues": [2e-15], "floor": 1e-14}),
        (IncompleteData("X0 Z1"), "expectation table has no entry for 'X0 Z1'",
         {"pauli_text": "X0 Z1"}),
    ],
)
def test_errors_cross_a_process_boundary(error, message, attrs):
    # a process pool returns an exception pickled, so it must rebuild unchanged
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and back.args == error.args == (message,)
    assert str(back) == message
    assert {name: getattr(back, name) for name in attrs} == attrs


class TestMetrics:
    def test_angle_basic(self):
        y = np.array([1.0, 2.0])
        assert recovery_angle(y, y) <= 1e-7
        assert recovery_angle(y, -y) <= 1e-7  # sign-insensitive
        assert recovery_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.pi / 2
        )

    def test_angle_resolves_small_angles(self):
        # acos of the cosine rounds every angle below about 1e-8 to 0
        y = np.array([1.0, 1e-9])
        assert recovery_angle(y, np.array([1.0, 0.0])) == pytest.approx(1e-9, rel=1e-6)
        assert recovery_angle(-3.0 * y, np.array([2.0, 0.0])) == pytest.approx(1e-9, rel=1e-6)

    def test_angle_rejects_zero(self):
        with pytest.raises(ValueError):
            recovery_angle(np.zeros(2), np.ones(2))

    def test_ratio_gauge(self):
        z = np.array([0.5, -1.0])
        ratio, c = temperature_ratio(z, 2.0, z, 2.0)
        assert ratio == pytest.approx(1.0) and c == pytest.approx(1.0)
        ratio, c = temperature_ratio(2 * z, 4.0, z, 2.0)
        assert ratio == pytest.approx(1.0) and c == pytest.approx(2.0)

    def test_ratio_unreliable_when_orthogonal(self):
        ratio, c = temperature_ratio(np.array([0.0, 1.0]), 1.0, np.array([1.0, 0.0]), 1.0)
        assert math.isnan(ratio) and c == 0.0


class TestReconstructSmall:
    def test_single_qubit_recovery(self):
        # thermal state of -Z at T=1; the span of all three letters is the
        # full traceless algebra, so the reconstruction is exact
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        result = reconstruct(table, asm)
        assert result.verdict is Verdict.CANDIDATE
        z = coefficient_vector(h, b)
        report = evaluate_recovery(result, z, 1.0)
        assert report.theta <= 1e-6
        assert abs(report.temperature_ratio - 1.0) <= 1e-4
        assert abs(result.mu_star) <= 1e-7

    def test_maximally_mixed_degenerates(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        b = all_strings(2, include_identity=False)
        h_terms = string_basis_operators(b[:4])
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        with pytest.raises(NormalizationDegenerate):
            reconstruct(table, asm)

    def test_maximally_mixed_fixed_temperature_fallback(self):
        rho = gibbs_density(PauliOperator.zero(2), 1.0)
        b = all_strings(2, include_identity=False)
        h_terms = string_basis_operators(b[:4])
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        opts = ReconstructOptions(sdp=SdpOptions(fixed_temperature=1.0))
        result = reconstruct(table, asm, opts)
        # every probed term is a symmetry of the tracial state, so the whole
        # candidate space survives, and the zero Hamiltonian fits with margin 0
        assert result.diagnostics.q == len(h_terms)
        assert result.verdict is Verdict.CANDIDATE
        assert abs(result.mu_star) < 1e-7

    def test_not_stationary(self):
        # thermal state of Z probed with the X direction only: no candidate
        # term is conserved, the kernel is empty
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = [PauliOperator.from_terms(1, [(1.0, "X0")])]
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        result = reconstruct(table, asm)
        assert result.verdict is Verdict.NOT_STATIONARY
        assert result.diagnostics.q == 0
        assert result.y_star is None

    def test_gauge_invariance(self, rng):
        # the state of (c h, c T) is identical, so the verdict and the
        # recovery angle cannot change
        h, z, terms = random_k_local_hamiltonian(3, 2, rng, coeff_norm=0.8)
        b = all_strings(3, include_identity=False)
        h_terms = string_basis_operators(terms)
        asm = MomentAssembler(b, h_terms)
        outputs = []
        for c in (1.0, 2.5):
            rho = gibbs_density(c * h, c * 1.2)
            table = build_table(rho, required_strings(b, h_terms))
            result = reconstruct(table, asm)
            report = evaluate_recovery(result, z, 1.2)
            outputs.append((result.verdict, report.theta))
        assert outputs[0][0] == outputs[1][0] == Verdict.CANDIDATE
        assert abs(outputs[0][1] - outputs[1][1]) < 1e-6

    def test_feasibility_under_restriction(self, rng):
        # restricted two-local span never certifies a true thermal state away
        from gibbslearn.pauli import enumerate_geometric_k_local

        for n in (3, 4, 5):
            h, z, terms = random_k_local_hamiltonian(n, 2, rng, coeff_norm=0.8)
            b = enumerate_geometric_k_local(n, 2)
            h_terms = string_basis_operators(terms)
            asm = MomentAssembler(b, h_terms)
            rho = gibbs_density(h, 1.5)
            table = build_table(rho, required_strings(b, h_terms))
            result = reconstruct(table, asm)
            assert result.verdict is Verdict.CANDIDATE
            assert result.mu_star >= -1e-7

    def test_project_delta_restricts_to_eigenvalues_above_floor(self):
        # a floor inside the modular spectrum: without projection the
        # reconstruction refuses, with it the problem is restricted to the
        # eigenvectors above the floor
        n = 4
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(gibbs_density(xxz_chain(n), 1.0), required_strings(b, h_terms))
        _, moments = asm.moment_set(table)
        evals = np.linalg.eigvalsh(moments.delta)
        # the spectrum is symmetric under lambda -> 1/lambda around a cluster
        # of eigenvalues at 1, so put the floor in the gap just below that
        # cluster, where rounding cannot move an eigenvalue across it
        below = int(np.count_nonzero(evals < 1 - 1e-8))
        floor = math.sqrt(evals[below - 1] * evals[below])
        kept = int(np.count_nonzero(evals > floor))
        assert 0 < kept < len(b)
        with pytest.raises(DeltaNotPositive):
            reconstruct(table, asm, ReconstructOptions(delta_floor=floor))
        opts = ReconstructOptions(delta_floor=floor, project_delta=True)
        result = reconstruct(table, asm, opts)
        assert result.verdict in (Verdict.CANDIDATE, Verdict.NOT_GIBBS)
        assert result.diagnostics.projected_dim == kept

    def test_rank_deficient_state_is_rejected_or_refuted(self):
        # ground-state-like density (regularized projector) is far from
        # thermal for generic couplings: expect a degeneracy error or a
        # certified negative margin
        import scipy.linalg

        from gibbslearn.errors import GramDegenerate
        from gibbslearn.pauli import dense_matrix

        n = 2
        h = xxz_chain(n)
        evals, evecs = scipy.linalg.eigh(dense_matrix(h))
        ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
        dim = 1 << n
        mat = (1 - 1e-12 * dim) * ground + 1e-12 * np.eye(dim)
        rho = mat / np.trace(mat).real
        b = all_strings(n, include_identity=False)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        try:
            result = reconstruct(table, asm)
            assert result.verdict in (Verdict.NOT_GIBBS, Verdict.CANDIDATE)
            if result.verdict is Verdict.CANDIDATE:
                # an almost-pure state can only pass with a huge inverse
                # temperature scale; the margin must still be tiny
                assert result.mu_star < 1e-3
        except GramDegenerate:
            pass


@pytest.mark.parametrize("epsilon", [math.nan, -1.0, 0.0, math.inf])
def test_explicit_epsilon_w_must_be_finite_and_positive(epsilon):
    # at or below 0 no direction passes (NotStationary, q = 0) and at inf every
    # one does (Candidate, q = 39 of 39): neither is a statement about the data
    n = 4
    b = enumerate_geometric_k_local(n, 2)
    h_terms = string_basis_operators(b)
    asm = MomentAssembler(b, h_terms)
    table = build_table(gibbs_density(xxz_chain(n), 1.0), required_strings(b, h_terms))
    with pytest.raises(GibbsLearnError, match=rf"^W threshold {epsilon!r}: must be finite and positive$"):
        reconstruct(table, asm, ReconstructOptions(epsilon_w=epsilon))


class TestCentralPath:
    def test_xxz_n6_iterations_and_temperature(self):
        # a solver rewrite must follow the same interior-point path: the
        # iteration count is that of the real-embedding solver that preceded
        # the complex Hermitian one, and T* is its value on these noise draws
        n = 6
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        exact = build_table(gibbs_density(xxz_chain(n, 0.5), 1.0), required_strings(b, h_terms))
        table = add_noise(exact, 1e-8, np.random.SeedSequence(0))
        result = reconstruct(table, asm)
        assert result.verdict is Verdict.CANDIDATE
        assert result.diagnostics.solver_iterations == 13
        assert result.t_star == pytest.approx(0.20313823824930388, rel=1e-8)


@pytest.fixture(scope="module")
def n6_string_basis():
    """The 2-local strings of a 6-site chain, an assembler on them and the strings it reads."""
    b = enumerate_geometric_k_local(6, 2)
    h_terms = string_basis_operators(b)
    return b, MomentAssembler(b, h_terms), required_strings(b, h_terms)


def n6_hamiltonian(model, b):
    """XXZ, with q = 2 kernel operators (H and the magnetization), or a generic chain, q = 1."""
    xxz = xxz_chain(6, 0.5)
    if model == "xxz":
        return xxz
    norm = np.linalg.norm(coefficient_vector(xxz, b))
    return random_k_local_hamiltonian(6, 2, np.random.default_rng(100), coeff_norm=norm)[0]


class TestFace:
    """On exact data the stability program's optimum is a face, not a point."""

    @pytest.mark.parametrize("temperature", [1.0, 10.0])
    @pytest.mark.parametrize("model, q", [("xxz", 2), ("generic", 1)])
    def test_kernel_operators_are_null_directions(
        self, n6_string_basis, rng, model, q, temperature
    ):
        # each kernel operator K_a commutes with the state and with every
        # other K_b, so its GNS vector is killed by log(Delta) and by each
        # H~_b: a null vector of T L0 + sum y H~ for every (y, T), whence mu* <= 0
        b, asm, needed = n6_string_basis
        table = build_table(gibbs_density(n6_hamiltonian(model, b), temperature), needed)
        ortho, moments = asm.moment_set(table)
        assert moments.q == q
        problem = stability_problem(moments, ReconstructOptions())
        v = np.linalg.solve(ortho.coeffs, moments.kernel_coeffs.T)
        v /= np.linalg.norm(v, axis=0)
        for _ in range(20):
            y, t = rng.normal(size=q), rng.uniform(0.0, 20.0)
            m = t * problem.l0 + np.einsum("a,aij->ij", y, problem.h_tilde_mats)
            assert np.linalg.norm(m @ v, axis=0).max() <= 1e-11 * np.abs(m).max()
        assert solve(problem).mu_star <= 1e-12

    @pytest.mark.parametrize("temperature", [1.0, 2.0, 10.0])
    def test_solver_picks_the_true_direction_on_the_face(self, n6_string_basis, temperature):
        # every point of the face has the same margin, so certification alone
        # does not fix y*: a solver that only maximizes lambda_min certified
        # these programs yet returned theta = 1.1e-4 at T=1.  The interior-point
        # path lands on the truth (theta 1.6e-14, 5.7e-15 and 4.2e-15)
        b, asm, needed = n6_string_basis
        h = n6_hamiltonian("xxz", b)
        result = reconstruct(build_table(gibbs_density(h, temperature), needed), asm)
        assert result.verdict is Verdict.CANDIDATE
        report = evaluate_recovery(result, coefficient_vector(h, b), temperature)
        assert report.theta <= 1e-10


def xxz_bond_terms(n):
    """The bond operators -(XX + YY + 0.5 ZZ) of the XXZ chain, one term each."""
    return [
        PauliOperator.from_terms(
            n, [(-1.0, f"X{i} X{i+1}"), (-1.0, f"Y{i} Y{i+1}"), (-0.5, f"Z{i} Z{i+1}")]
        )
        for i in range(n - 1)
    ]


def rows_of(table, strings):
    """The rows of ``table`` for ``strings`` only, with its noise level and seed."""
    x, z = masks(sorted(strings, key=lambda s: (s.x, s.z)))
    return ExpectationTable(table.n, x, z, table.lookup(x, z), table.noise_sigma, table.seed)


def outcome(result):
    return repr(result.verdict), repr(result.mu_star), repr(result.t_star), repr(result.y_star)


class TestReadStrings:
    """A table needs only the strings the moments read, and ``gen`` writes only those."""

    @pytest.mark.parametrize("n, terms", [(5, "strings"), (6, "bonds")])
    def test_read_rows_give_the_same_result(self, n, terms):
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b) if terms == "strings" else xxz_bond_terms(n)
        asm = MomentAssembler(b, h_terms)
        rho = gibbs_density(xxz_chain(n, 0.5), 1.0)
        closure = build_table(rho, masks(list(full_closure(b, h_terms))))
        gen_rows = build_table(rho, required_strings(b, h_terms))
        assert mask_strings(n, gen_rows.x, gen_rows.z) == sorted(
            set.union(*read_strings(b, h_terms)), key=letters_sort_key
        )
        assert len(gen_rows.values) < len(closure.values)
        # noise keyed by string gives the gen rows the closure's noisy values
        for full, rows in (
            (closure, gen_rows),
            (add_noise(closure, 1e-8, np.random.SeedSequence(3)),
             add_noise(gen_rows, 1e-8, np.random.SeedSequence(3))),
        ):
            assert np.array_equal(full.lookup(rows.x, rows.z), rows.values)
            result = reconstruct(rows, asm)
            assert result.verdict is Verdict.CANDIDATE
            assert outcome(result) == outcome(reconstruct(full, asm))

    def test_missing_triple_is_named(self):
        n = 5
        b = enumerate_geometric_k_local(n, 2)
        h_terms = xxz_bond_terms(n)
        exact = build_table(gibbs_density(xxz_chain(n, 0.5), 1.0), required_strings(b, h_terms))
        pairs_and_terms, triples = read_strings(b, h_terms)
        dropped = min(triples - pairs_and_terms, key=lambda s: (s.x, s.z))
        table = rows_of(exact, (pairs_and_terms | triples) - {dropped})
        with pytest.raises(IncompleteData, match=f"'{dropped.to_text()}'"):
            reconstruct(table, MomentAssembler(b, h_terms))


class TestVerdict:
    def test_unbounded_program_is_solver_failure(self):
        # T L0 + y A - mu I with L0 = diag(1, 2), A = diag(-1/2, 1/2) and
        # y = 1 fixed by the normalization: the margin grows without bound in T
        problem = SdpProblem(np.diag([1.0, 2.0]), [np.diag([-0.5, 0.5])], [-1.0])
        solution = solve(problem)
        assert solution.status is SolverStatus.INFEASIBLE
        assert solution.note == "objective diverging; program appears unbounded"
        with pytest.raises(SolverFailure, match="unbounded"):
            verdict(solution, problem.l0, ReconstructOptions())


RECORD_HEAD = [
    "verdict", "t_star", "mu_star", "r", "s", "q", "epsilon_w", "delta_min_eig",
    "gram_min_eig", "gram_max_eig", "gram_eigenvalues", "w_spectrum", "projected_dim",
    "solver_status", "solver_iterations", "residual_primal", "residual_dual", "residual_gap",
]


def record_lines(result, tmp_path):
    path = tmp_path / "result.txt"
    result.save(path)
    return [line.partition(" = ") for line in path.read_text().splitlines()]


class TestResultSerialization:
    def test_not_stationary_keys(self, tmp_path):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        b = all_strings(1, include_identity=False)
        h_terms = [PauliOperator.from_terms(1, [(1.0, "X0")])]
        asm = MomentAssembler(b, h_terms)
        result = reconstruct(build_table(gibbs_density(h, 1.0), required_strings(b, h_terms)), asm)
        lines = dict((key, value) for key, _, value in record_lines(result, tmp_path))
        assert list(lines) == RECORD_HEAD
        assert lines["verdict"] == "NotStationary" and lines["q"] == "0"
        for key in ("t_star", "mu_star", "projected_dim", "solver_status", "residual_gap"):
            assert lines[key] == "", key
        assert lines["solver_iterations"] == "0"

    def test_operator_terms(self, tmp_path):
        # the XXZ bond operators as candidate terms: each coefficient line is
        # labelled with its operator's text
        n = 4
        bonds = xxz_bond_terms(n)
        b = enumerate_geometric_k_local(n, 2)
        asm = MomentAssembler(b, bonds)
        rho = gibbs_density(xxz_chain(n, 0.5), 1.0)
        result = reconstruct(build_table(rho, required_strings(b, bonds)), asm)
        assert result.verdict is Verdict.CANDIDATE
        lines = record_lines(result, tmp_path)
        assert [key for key, _, _ in lines[len(RECORD_HEAD):]] == [
            f"coeff.-1.0 X{i} X{i+1}; -1.0 Y{i} Y{i+1}; -0.5 Z{i} Z{i+1}" for i in range(n - 1)
        ]
        assert [float(value) for _, _, value in lines[len(RECORD_HEAD):]] == result.y_star.tolist()

    def test_save_fields(self, tmp_path):
        h = PauliOperator.from_terms(1, [(-1.0, "Z0")])
        rho = gibbs_density(h, 1.0)
        b = all_strings(1, include_identity=False)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        result = reconstruct(table, asm)
        path = tmp_path / "result.txt"
        result.save(path)
        text = path.read_text()
        keys = RECORD_HEAD + ["coeff." + s.to_text() for s in b]
        assert [line.partition(" = ")[0] for line in text.splitlines()] == keys
        for key in (
            "verdict = Candidate",
            "t_star = ",
            "mu_star = ",
            "q = 1",
            "epsilon_w = ",
            "delta_min_eig = ",
            "gram_min_eig = ",
            "gram_eigenvalues = ",
            "w_spectrum = ",
            "solver_status = Optimal",
            "coeff.Z0 = ",
        ):
            assert key in text, key
        line = next(l for l in text.splitlines() if l.startswith("gram_eigenvalues = "))
        values = [float(v) for v in line.partition(" = ")[2].split()]
        assert values == result.diagnostics.gram_eigenvalues.tolist()
