"""Fast tests of the benchmark itself, on n=3 versions of its workloads.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads as W
from checks import CheckFailed

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_GEN = W.GenLearnPart(3, (1.0,), 1e-8)
TINY = {
    "sweep": W.Workload("sweep", W.SweepPart(3, (1.0, 2.0), (1e-8,), runs=1, workers=1), TINY_GEN),
    "sweep-w2": W.Workload("sweep-w2", W.SweepPart(3, (1.0,), (1e-8,), runs=2, workers=2), TINY_GEN),
    "learn": W.Workload("learn", None, W.GenLearnPart(3, (1.0, 2.0), 1e-8)),
}


def _evaluate(calls, tmp_path):
    return checks.evaluate(calls, W.XXZ_DELTA, np.random.default_rng(0), tmp_path / "rt.tsv")


@pytest.fixture(scope="module")
def learn_round(tmp_path_factory):
    out = tmp_path_factory.mktemp("learn")
    return W.run_round(TINY["learn"], 3, 0, out)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_round_is_correct(name, tmp_path):
    calls = W.run_round(TINY[name], 1, 0, tmp_path)
    outcome = _evaluate(calls, tmp_path)
    assert outcome.problems == []
    assert outcome.failed == 0
    rows = sum(len(c.records) for c in calls)
    assert outcome.attempted == rows + 2 * len(TINY[name].gen_learn.temperatures)


def test_same_seed_same_inputs(tmp_path):
    a = W.run_round(TINY["sweep"], 7, 2, tmp_path / "a")
    b = W.run_round(TINY["sweep"], 7, 2, tmp_path / "b")
    strip = lambda call: [{k: v for k, v in r.items() if k != "wall_ms"} for r in call.records]
    assert strip(a[0]) == strip(b[0])
    assert a[1].table.read_bytes() == b[1].table.read_bytes()
    assert W.derived_seed(7, 2) != W.derived_seed(8, 2)


def test_traced_round_replays_and_reports_every_layer(tmp_path):
    workload = TINY["sweep"]
    plain = W.run_round(workload, 4, 0, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = W.run_round(workload, 4, 0, tmp_path / "traced", span=tracer.span)
        problems = tracing.replay_calls(tracer, traced, W.XXZ_DELTA, W.K_LOCAL)
    assert problems == []
    metrics = tracing.per_layer_metrics(tracer.dump(), traced, plain)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["unit"] for m in SPEC["per_layer"]} >= {v["unit"] for v in metrics.values()}
    assert metrics["moments.r"]["value"] == 27
    assert metrics["sdp.factorizations_per_iteration"]["value"] > 0
    assert 0 < metrics["learn.self_s"]["value"] < metrics["learn.reconstruct_s"]["value"]


def test_wrappers_are_removed_after_tracing():
    import scipy.linalg
    from gibbslearn import sdp

    solve, eigh = sdp.solve, scipy.linalg.eigh
    with tracing.instrumented(tracing.Tracer()):
        assert sdp.solve is not solve
    assert sdp.solve is solve and scipy.linalg.eigh is eigh


def test_replay_disagreement_is_reported():
    replayed = tracing.Replayed("Candidate", mu_star=-1e-12)
    assert tracing._same(replayed, "Candidate", repr(-1e-12)) is None
    assert tracing._same(replayed, "Candidate", repr(-2e-12)) is not None
    assert tracing._same(replayed, "NotGibbs", repr(-1e-12)) is not None


def test_perturbed_coefficients_are_rejected(learn_round):
    record = next(c for c in learn_round if c.kind == "learn").record
    fields, labels, coeffs = checks.read_record(record)
    args = (float(fields["t_star"]), 1.0, 1e-8, W.XXZ_DELTA)
    checks.check_recovery(labels, coeffs, *args)
    bent = list(coeffs)
    bent[0] += 1e-3 * np.linalg.norm(coeffs)
    with pytest.raises(CheckFailed, match="recovery angle"):
        checks.check_recovery(labels, bent, *args)
    with pytest.raises(CheckFailed, match="temperature ratio"):
        checks.check_recovery(labels, coeffs, 2 * args[0], *args[1:])


def test_notgibbs_on_thermal_data_is_rejected_unless_known(learn_round, tmp_path):
    learn_call = next(c for c in learn_round if c.kind == "learn")
    flipped = tmp_path / "learn.txt"
    flipped.write_text(learn_call.record.read_text().replace("= Candidate", "= NotGibbs"))
    call = dataclasses.replace(learn_call, exit_code=3, record=flipped)
    outcome = _evaluate([call], tmp_path)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert any("ended in NotGibbs" in p for p in outcome.problems)
    known = _evaluate([dataclasses.replace(call, known_fault="NotGibbs")], tmp_path)
    assert (known.failed, known.problems) == (1, [])


def test_sweep_row_that_fails_is_counted_and_rejected(tmp_path):
    row = {"sigma_noise": 1e-8, "temperature": 1.0, "run": 0, "theta": "", "temp_ratio": "",
           "mu_star": "", "verdict": "SolverFailure", "q": "", "wall_ms": "1.0"}
    call = W.Call("run_sweep", 1.0, records=[row])
    outcome = _evaluate([call], tmp_path)
    assert (outcome.attempted, outcome.failed, len(outcome.problems)) == (1, 1, 1)
    with pytest.raises(CheckFailed, match="mu"):
        checks.check_margin("Candidate", -1e-6, 1e-8)


def test_corrupted_table_entry_is_rejected(learn_round, tmp_path):
    gen = next(c for c in learn_round if c.kind == "gen")
    rho = checks.gibbs_dense(3, W.XXZ_DELTA, gen.temperature)
    checks.check_table(gen.table, 3, gen.sigma, rho, np.random.default_rng(0))
    _, entries = checks.read_table(gen.table)
    head = [line for line in gen.table.read_text().splitlines() if line.startswith("#")]

    def write(pairs):
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(head + [f"{label}\t{value}" for label, value in pairs]) + "\n")
        return bad

    shifted = [(k, v if k == "I" else repr(float(v) + 1e-4)) for k, v in entries]
    with pytest.raises(CheckFailed, match="dense value"):
        checks.check_table(write(shifted), 3, gen.sigma, rho, np.random.default_rng(0))
    off_identity = [(k, "0.5" if k == "I" else v) for k, v in entries]
    with pytest.raises(CheckFailed, match="identity"):
        checks.check_table(write(off_identity), 3, gen.sigma, rho, np.random.default_rng(0))


def test_table_that_does_not_round_trip_is_rejected(learn_round, tmp_path):
    gen = next(c for c in learn_round if c.kind == "gen")
    checks.check_round_trip(gen.table, tmp_path / "again.tsv")
    lines = gen.table.read_text().splitlines()
    label, value = lines[-1].split("\t")
    drifted = tmp_path / "drifted.tsv"
    drifted.write_text("\n".join(lines[:-1] + [f"{label}\t{value}0"]) + "\n")
    with pytest.raises(CheckFailed, match="round trip"):
        checks.check_round_trip(drifted, tmp_path / "again.tsv")


def test_model_definition():
    assert checks.xxz_coefficient("X2 X3", 0.5) == -1.0
    assert checks.xxz_coefficient("Z0 Z1", 0.5) == -0.5
    assert checks.xxz_coefficient("X0 Y1", 0.5) == 0.0
    assert checks.xxz_coefficient("Z0 Z2", 0.5) == 0.0
    assert checks.recovery_angle([2.0, 0.0], [-1.0, 0.0]) == 0.0
    assert checks.recovery_angle([1.0, 1e-9], [1.0, 0.0]) == pytest.approx(1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
