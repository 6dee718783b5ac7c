"""Checks of the program's outputs against computations made apart from it.

Nothing here calls into gibbslearn except ``ExpectationTable.load`` and
``save`` in the round-trip check, which is what that check is about.  The
model, the Gibbs state and the table entries are recomputed from their
definitions with Kronecker products and ``scipy.linalg.expm``; the recovery
angle and the temperature ratio are recomputed from the returned
coefficients.
"""

from __future__ import annotations

import filecmp
import math
import re
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

TEMPERATURE_RATIO_TOL = 0.15  # the restricted span biases T: 0.917 at n=10, T=1
TABLE_SAMPLES = 16
TABLE_NOISE_WIDTHS = 6.0

# learn's exit codes (see gibbslearn.cli)
LEARN_EXIT_VERDICTS = {0: "Candidate", 2: "NotStationary", 3: "NotGibbs"}


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def theta_tolerance(sigma: float) -> float:
    """Largest accepted recovery angle: 200 sigma on a floor of 1e-6.

    Observed at n=6 and n=10: theta is 10 to 60 times sigma.
    """
    return 1e-6 + 200.0 * sigma


def margin_tolerance(sigma: float) -> float:
    """How far below zero a Candidate's mu* may sit on thermal data."""
    return 1e-9 + 1e-2 * sigma


# -- the model, from its definition -------------------------------------------


def parse_label(label: str) -> Dict[int, str]:
    """Sites and letters of a Pauli string label such as "X0 Z3" or "I"."""
    if label.strip() in ("", "I"):
        return {}
    letters = {}
    for token in label.split():
        match = re.fullmatch(r"([XYZ])(\d+)", token)
        if not match:
            raise CheckFailed(f"unreadable Pauli label {label!r}")
        letters[int(match.group(2))] = match.group(1)
    return letters


def xxz_coefficient(label: str, delta: float) -> float:
    """Coefficient of a string in -(XX + YY + delta ZZ) summed over the bonds."""
    letters = parse_label(label)
    if len(letters) != 2:
        return 0.0
    (i, a), (j, b) = sorted(letters.items())
    if j != i + 1 or a != b:
        return 0.0
    return -delta if a == "Z" else -1.0


def kron_string(letters: Dict[int, str], n: int) -> np.ndarray:
    return reduce(np.kron, [PAULI[letters.get(site, "I")] for site in range(n)])


def xxz_dense(n: int, delta: float) -> np.ndarray:
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n - 1):
        for letter, coeff in (("X", -1.0), ("Y", -1.0), ("Z", -delta)):
            h += coeff * kron_string({i: letter, i + 1: letter}, n)
    return h


def gibbs_dense(n: int, delta: float, temperature: float) -> np.ndarray:
    rho = scipy.linalg.expm(-xxz_dense(n, delta) / temperature)
    return rho / np.trace(rho).real


# -- recovery -------------------------------------------------------------------


def recovery_angle(y: np.ndarray, z: np.ndarray) -> float:
    """Angle between the lines spanned by y and z, stable near zero."""
    y = np.asarray(y, dtype=float)
    z_hat = np.asarray(z, dtype=float) / np.linalg.norm(z)
    along = float(y @ z_hat)
    across = float(np.linalg.norm(y - along * z_hat))
    return math.atan2(across, abs(along))


def temperature_ratio(y: np.ndarray, t_star: float, z: np.ndarray, t_true: float) -> float:
    """(T* / c) / T with c the least-squares scale of y on z; 1 is perfect."""
    c = float(np.dot(y, z) / np.dot(z, z))
    return (t_star / c) / t_true


def check_recovery(
    labels: Sequence[str],
    coeffs: Sequence[float],
    t_star: float,
    temperature: float,
    sigma: float,
    delta: float,
) -> float:
    """Check returned coefficients and temperature against the model; return theta."""
    z = np.array([xxz_coefficient(label, delta) for label in labels])
    if not np.any(z):
        raise CheckFailed("no model term among the returned coefficients")
    theta = recovery_angle(np.asarray(coeffs, dtype=float), z)
    if not theta <= theta_tolerance(sigma):
        raise CheckFailed(f"recovery angle {theta:.3e} above {theta_tolerance(sigma):.3e}")
    check_temperature_ratio(temperature_ratio(coeffs, t_star, z, temperature))
    return theta


def check_temperature_ratio(ratio: float):
    if not abs(ratio - 1.0) <= TEMPERATURE_RATIO_TOL:
        raise CheckFailed(f"temperature ratio {ratio!r} not within {TEMPERATURE_RATIO_TOL} of 1")


def check_margin(verdict: str, mu_star: float, sigma: float):
    if verdict == "Candidate" and not mu_star >= -margin_tolerance(sigma):
        raise CheckFailed(f"Candidate with mu* = {mu_star!r} below -{margin_tolerance(sigma):.1e}")


def check_sweep_record(rec: dict, delta: float):
    """A sweep row on thermal data: Candidate, in tolerance, theta as reported."""
    if rec["verdict"] != "Candidate":
        raise CheckFailed(f"sweep row ended in {rec['verdict']}")
    sigma = float(rec["sigma_noise"])
    theta = float(rec["theta"])
    if not theta <= theta_tolerance(sigma):
        raise CheckFailed(f"sweep row theta {theta:.3e} above {theta_tolerance(sigma):.3e}")
    check_temperature_ratio(float(rec["temp_ratio"]))
    check_margin(rec["verdict"], float(rec["mu_star"]), sigma)


# -- files ----------------------------------------------------------------------


def read_record(path: Path) -> Tuple[dict, List[str], List[float]]:
    """A ``learn --out`` record: scalar fields, coefficient labels and values."""
    fields, labels, coeffs = {}, [], []
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckFailed(f"unreadable record line {line!r}")
        if key.startswith("coeff."):
            labels.append(key[len("coeff."):])
            coeffs.append(float(value))
        else:
            fields[key] = value
    return fields, labels, coeffs


def read_table(path: Path) -> Tuple[dict, List[Tuple[str, str]]]:
    """Header fields and (label, value text) lines of a table file."""
    header, entries = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif line:
            label, sep, value = line.partition("\t")
            if not sep:
                raise CheckFailed(f"unreadable table line {line!r}")
            entries.append((label, value))
    return header, entries


def check_table(path: Path, n: int, sigma: float, rho: np.ndarray, rng: np.random.Generator):
    """Identity exactly 1, and sampled entries within 6 sigma of the dense state."""
    header, entries = read_table(path)
    if int(header.get("n", -1)) != n:
        raise CheckFailed(f"table header n = {header.get('n')}, expected {n}")
    values = dict(entries)
    if values.get("I") is None or float(values["I"]) != 1.0:
        raise CheckFailed(f"identity entry {values.get('I')!r}, expected exactly 1")
    others = [label for label, _ in entries if label != "I"]
    picks = rng.choice(len(others), size=min(TABLE_SAMPLES, len(others)), replace=False)
    allowed = TABLE_NOISE_WIDTHS * sigma + 1e-10
    for i in picks:
        label = others[i]
        exact = float(np.einsum("ij,ji->", rho, kron_string(parse_label(label), n)).real)
        if not abs(float(values[label]) - exact) <= allowed:
            raise CheckFailed(
                f"table entry {label} = {values[label]}, dense value {exact!r} (allowed {allowed:.1e})"
            )
    return len(entries)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def evaluate(calls, delta: float, rng: np.random.Generator, scratch: Path) -> Outcome:
    """Count operations and failures, and check every output of a run's calls.

    Operations are sweep rows, gen calls and learn calls.  A failed
    operation is a problem unless it ends in the known fault of its part.
    """
    out = Outcome()
    dense = {}
    for call in calls:
        if call.kind == "run_sweep":
            for rec in call.records:
                out.attempted += 1
                out.failed += rec["verdict"] != "Candidate"
                try:
                    check_sweep_record(rec, delta)
                except CheckFailed as exc:
                    out.problems.append(
                        f"sweep seed {call.seed} sigma {rec['sigma_noise']} "
                        f"T {rec['temperature']} run {rec['run']}: {exc}"
                    )
            continue
        out.attempted += 1
        what = f"{call.kind} n={call.n} T={call.temperature} seed={call.seed}"
        try:
            if call.kind == "gen":
                if call.exit_code != 0 or call.table is None:
                    out.failed += 1
                    raise CheckFailed(f"exit code {call.exit_code}")
                key = (call.n, call.temperature)
                if key not in dense:
                    dense[key] = gibbs_dense(call.n, delta, call.temperature)
                check_table(call.table, call.n, call.sigma, dense[key], rng)
                check_round_trip(call.table, scratch)
                continue
            verdict = LEARN_EXIT_VERDICTS.get(call.exit_code, f"exit code {call.exit_code}")
            if verdict != "Candidate":
                out.failed += 1
                if verdict != call.known_fault:
                    raise CheckFailed(f"ended in {verdict}")
            if not call.record.exists():
                continue
            fields, labels, coeffs = read_record(call.record)
            if fields["verdict"] != verdict:
                raise CheckFailed(f"record says {fields['verdict']}, exit code {call.exit_code}")
            if coeffs:
                check_recovery(labels, coeffs, float(fields["t_star"]), call.temperature,
                               call.sigma, delta)
                check_margin(verdict, float(fields["mu_star"]), call.sigma)
        except CheckFailed as exc:
            out.problems.append(f"{what}: {exc}")
    return out


def check_round_trip(path: Path, scratch: Path):
    """Loading a table and saving it again must reproduce the file byte for byte."""
    from gibbslearn.states import ExpectationTable

    table = ExpectationTable.load(path)
    _, entries = read_table(path)
    if len(table.values) != len(entries):
        raise CheckFailed(f"loaded {len(table.values)} entries from {len(entries)} lines")
    table.save(scratch)
    same = filecmp.cmp(path, scratch, shallow=False)
    scratch.unlink()
    if not same:
        raise CheckFailed(f"{path.name} does not survive a load/save round trip")
