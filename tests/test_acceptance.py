"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  The headline large-system experiment is replaced by
exact-diagonalization reproductions at small chain sizes plus property
suites; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import dataclasses
import math
import time
from collections import Counter

import numpy as np
import pytest

from gibbslearn.cli import ExperimentConfig, main, run_sweep
from gibbslearn.gns import run_battery
from gibbslearn.learn import Verdict, evaluate_recovery, reconstruct
from gibbslearn.models import random_k_local_hamiltonian, string_basis_operators
from gibbslearn.moments import MomentAssembler, epsilon_w
from gibbslearn.pauli import all_strings, enumerate_geometric_k_local
from gibbslearn.sdp import SdpProblem, check_solution, solve
from gibbslearn.states import build_table, gibbs_density, required_strings

from oracles import sdp_bisection_oracle


def _report(index, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {index}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_full_span_recovery():
    """Exact recovery with a complete traceless operator span."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"theta": 0.0, "ratio": 0.0, "mu": 0.0}
    for n in (2, 3):
        b = all_strings(n, include_identity=False)
        terms = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(terms)
        asm = MomentAssembler(b, h_terms)
        for _ in range(10):
            h, z, _ = random_k_local_hamiltonian(n, 2, rng, coeff_norm=1.0, strings=terms)
            for temperature in (0.5, 1.0, 2.0):
                rho = gibbs_density(h, temperature)
                table = build_table(rho, required_strings(b, h_terms))
                result = reconstruct(table, asm)
                assert result.verdict is Verdict.CANDIDATE
                report = evaluate_recovery(result, z, temperature)
                worst["theta"] = max(worst["theta"], report.theta)
                worst["ratio"] = max(worst["ratio"], abs(report.temperature_ratio - 1.0))
                worst["mu"] = max(worst["mu"], abs(result.mu_star))
    ok = worst["theta"] <= 1e-6 and worst["ratio"] <= 1e-4 and worst["mu"] <= 1e-7
    _report(
        1,
        ok,
        f"full-span recovery over 60 runs: worst theta {worst['theta']:.2e}, "
        f"worst |ratio-1| {worst['ratio']:.2e}, worst |mu| {worst['mu']:.2e}",
        time.perf_counter() - start,
    )
    assert worst["theta"] <= 1e-6
    assert worst["ratio"] <= 1e-4
    assert worst["mu"] <= 1e-7


def test_criterion_2_feasibility_restricted_span():
    """Thermal data of an in-span Hamiltonian always keeps the margin nonnegative."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    temperatures = (0.5, 1.0, 2.0, 10.0)
    worst_mu = math.inf
    count = 0
    for n in (4, 6):
        b = enumerate_geometric_k_local(n, 2)
        h_terms = string_basis_operators(b)
        asm = MomentAssembler(b, h_terms)
        for case in range(15):
            h, z, _ = random_k_local_hamiltonian(n, 2, rng, coeff_norm=1.0, strings=b)
            temperature = temperatures[case % len(temperatures)]
            rho = gibbs_density(h, temperature)
            table = build_table(rho, required_strings(b, h_terms))
            result = reconstruct(table, asm)
            assert result.mu_star is not None
            worst_mu = min(worst_mu, result.mu_star)
            count += 1
    ok = worst_mu >= -1e-7
    _report(
        2,
        ok,
        f"feasibility in {count}/30 restricted-span cases: worst mu {worst_mu:.2e}",
        time.perf_counter() - start,
    )
    assert count == 30
    assert worst_mu >= -1e-7


def _sweep_config():
    return ExperimentConfig(
        n=6,
        model="xxz",
        xxz_delta=0.5,
        temperatures=[1.0, 2.0, 10.0],
        sigma_grid=[1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3],
        runs_per_point=10,
        k_local=2,
        seed=606,
        workers=1,
    )


@pytest.fixture(scope="module")
def sweep_results():
    cfg = _sweep_config()
    return run_sweep(cfg)


def test_criterion_3a_theta_monotone(sweep_results):
    start = time.perf_counter()
    records, aggregates = sweep_results
    violations = {}
    for temperature in (1.0, 2.0, 10.0):
        curve = [
            (row["sigma_noise"], float(row["theta_mean"]))
            for row in aggregates
            if row["temperature"] == temperature and row["theta_mean"] != ""
        ]
        curve.sort(key=lambda p: -p[0])  # large noise first
        bad = sum(1 for a, b in zip(curve, curve[1:]) if b[1] > a[1])
        violations[temperature] = bad
    ok = all(v <= 1 for v in violations.values())
    _report(
        "3a",
        ok,
        f"mean recovery angle non-increasing toward low noise; violations per curve {violations}",
        time.perf_counter() - start,
    )
    assert all(v <= 1 for v in violations.values())


# On a self-adjoint string basis with per-string noise the modular matrix is
# a *-congruence of the conjugated Gram matrix, so modular positivity is lost
# exactly when Gram positivity is, and the Gram floor check reports it first.
MODULAR_POSITIVITY_FAILURES = ("GramDegenerate", "DeltaNotPositive")


def test_criterion_3b_delta_positivity_threshold(sweep_results):
    """Modular positivity breaks at T=1 for some noise level in [1e-5, 1e-2]."""
    start = time.perf_counter()
    records, _ = sweep_results
    # the shared grid stops at 1e-3; add the top of the window at T=1
    top_cfg = dataclasses.replace(_sweep_config(), temperatures=[1.0], sigma_grid=[1e-2])
    top_records, _ = run_sweep(top_cfg)
    counts = {}
    for rec in records + top_records:
        if rec["temperature"] == 1.0:
            counts.setdefault(rec["sigma_noise"], Counter())[rec["verdict"]] += 1
    failures = sorted(
        sigma
        for sigma, verdicts in counts.items()
        if any(verdicts[name] for name in MODULAR_POSITIVITY_FAILURES)
    )
    summary = "; ".join(
        f"{sigma:.0e}: " + ", ".join(f"{v} x{c}" for v, c in sorted(verdicts.items()))
        for sigma, verdicts in sorted(counts.items())
    )
    ok = bool(failures) and 1e-5 <= failures[0] <= 1e-2
    first = f"{failures[0]:.0e}" if failures else "none up to 1e-02"
    _report(
        "3b",
        ok,
        f"first modular-positivity failure at T=1: {first}; verdicts per sigma: {summary}",
        time.perf_counter() - start,
    )
    assert failures, (
        f"no {' / '.join(MODULAR_POSITIVITY_FAILURES)} at T=1 up to sigma = 1e-2; "
        f"verdicts per sigma: {summary}"
    )
    assert 1e-5 <= failures[0] <= 1e-2, (
        f"first modular-positivity failure at sigma = {failures[0]:.0e}, outside "
        f"[1e-5, 1e-2]; verdicts per sigma: {summary}"
    )


def test_criterion_3c_temperature_ratio_at_low_noise(sweep_results):
    start = time.perf_counter()
    _, aggregates = sweep_results
    ratios = {
        row["temperature"]: float(row["temp_ratio_mean"])
        for row in aggregates
        if row["sigma_noise"] == 1e-8 and row["temp_ratio_mean"] != ""
    }
    ok = len(ratios) == 3 and all(0.5 <= r <= 2.0 for r in ratios.values())
    _report(
        "3c",
        ok,
        f"temperature ratios at the lowest noise point: {ratios}",
        time.perf_counter() - start,
    )
    assert len(ratios) == 3
    for temperature, ratio in ratios.items():
        assert 0.5 <= ratio <= 2.0, (temperature, ratio)


def test_criterion_4_verification_battery():
    start = time.perf_counter()
    results = run_battery(n_max=3, seed=404, instances=100)
    failed = [check for check in results if not check.passed]
    ok = not failed
    _report(
        4,
        ok,
        f"{len(results) - len(failed)}/{len(results)} brute-force identity checks "
        f"passed over 100 randomized instances",
        time.perf_counter() - start,
    )
    for check in results:
        assert check.passed, check.line()


def _random_bounded_problem(rng, q, r):
    def herm(traceless=True):
        raw = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        mat = 0.5 * (raw + raw.conj().T)
        if traceless:
            mat -= np.trace(mat).real / r * np.eye(r)
        return mat

    l0 = herm()
    mats = np.stack([herm() for _ in range(q)])
    w = rng.normal(size=q)
    while np.abs(w).max() < 0.5:
        w = rng.normal(size=q)
    return SdpProblem(l0, mats, w)


def test_criterion_5_solver_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    sizes = [(1, 40)] * 10 + [(1, 16)] * 10 + [(2, 12)] * 20 + [(3, 8)] * 10
    worst_oracle_gap = 0.0
    worst_kkt = 0.0
    solved = 0
    for q, r in sizes:
        prob = _random_bounded_problem(rng, q, r)
        sol = solve(prob)
        # the test oracle searches a bounded box; keep instances inside it
        if abs(sol.t_star) > 8 or np.abs(sol.y_star).max() > 8:
            continue
        mu_ref, _, _ = sdp_bisection_oracle(
            prob.l0, prob.h_tilde_mats, prob.h_tilde_expectations
        )
        worst_oracle_gap = max(worst_oracle_gap, abs(sol.mu_star - mu_ref))
        worst_kkt = max(worst_kkt, check_solution(prob, sol).worst_violation())
        solved += 1

    analytic = SdpProblem(
        np.diag([-1.0, -2.0]).astype(complex),
        np.array([np.diag([1.0, 2.0])], dtype=complex),
        np.array([-1.0]),
    )
    sol = solve(analytic)
    analytic_ok = abs(sol.mu_star - 1.0) <= 1e-6 and abs(sol.t_star) <= 1e-6
    ok = solved >= 50 and worst_oracle_gap <= 1e-4 and worst_kkt <= 1e-7 and analytic_ok
    _report(
        5,
        ok,
        f"{solved} random programs: worst |mu - oracle| {worst_oracle_gap:.2e}, "
        f"worst KKT violation {worst_kkt:.2e}; analytic case mu {sol.mu_star:.8f} "
        f"T {sol.t_star:.1e}",
        time.perf_counter() - start,
    )
    assert solved >= 50
    assert worst_oracle_gap <= 1e-4
    assert worst_kkt <= 1e-7
    assert analytic_ok


def test_criterion_6_threshold_formula():
    start = time.perf_counter()
    floor_value = epsilon_w(0.0, 123456)
    noise_value = epsilon_w(1e-4, 10**4)
    ok = (
        abs(floor_value - 4e-9) <= 1e-12 * 4e-9
        and abs(noise_value - 4e-4) <= 1e-12 * 4e-4
    )
    _report(
        6,
        ok,
        f"threshold formula: floor branch {floor_value!r}, noise branch {noise_value!r}",
        time.perf_counter() - start,
    )
    assert abs(floor_value - 4e-9) <= 1e-12 * 4e-9
    assert abs(noise_value - 4e-4) <= 1e-12 * 4e-4


def test_criterion_7_sweep_determinism(tmp_path):
    start = time.perf_counter()

    def run(workers, out):
        rc = main(
            [
                "sweep",
                "--n",
                "3",
                "--temperatures",
                "1.0",
                "--sigma-grid",
                "1e-6,1e-4",
                "--runs-per-point",
                "3",
                "--seed",
                "77",
                "--workers",
                str(workers),
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "records.csv").read_text().splitlines()
        stripped = [",".join(line.split(",")[:-1]) for line in lines]
        return stripped, (out / "aggregate.csv").read_text()

    first = run(1, tmp_path / "serial_a")
    second = run(1, tmp_path / "serial_b")
    third = run(2, tmp_path / "parallel")
    ok = first == second == third
    _report(
        7,
        ok,
        "records and aggregates byte-identical across repeats and worker counts "
        "(timing column excluded)",
        time.perf_counter() - start,
    )
    assert first == second
    assert first == third
