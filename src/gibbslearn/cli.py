"""Command-line front end: gen, learn, sweep, verify.

Exit codes for ``learn``: 0 candidate found, 2 no stationary direction,
3 certified non-Gibbs, 4 data or numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import gns, models, pauli, states
from .errors import (
    ConfigError,
    DeltaNotPositive,
    DimensionMismatch,
    GibbsLearnError,
    GramDegenerate,
    NormalizationDegenerate,
    SolverFailure,
)
from .learn import ReconstructOptions, Verdict, evaluate_recovery, reconstruct
from .moments import MomentAssembler
from .pauli import PauliOperator, PauliString, dense_limit, enumerate_geometric_k_local
from .states import (
    ExpectationTable,
    add_noise,
    build_table,
    gibbs_density,
    read_tsv,
    write_tsv,
)

# the keys of a sweep record, in records.csv's column order
SWEEP_COLUMNS = [
    "sigma_noise",
    "temperature",
    "run",
    "theta",
    "temp_ratio",
    "mu_star",
    "verdict",
    "q",
    "wall_ms",
]

# the failures a reconstruction reports instead of a verdict
RECONSTRUCTION_FAILURES = (
    GramDegenerate, DeltaNotPositive, NormalizationDegenerate, SolverFailure
)

# each verdict's learn exit code and summary line
VERDICTS = {
    Verdict.NOT_STATIONARY: (
        2, "no direction in the candidate span leaves the state stationary"
    ),
    Verdict.NOT_GIBBS: (
        3,
        "certified: the state is not a thermal state of any Hamiltonian "
        "in the candidate span",
    ),
    Verdict.CANDIDATE: (0, "candidate Hamiltonian and temperature recovered"),
}


@dataclass
class ExperimentConfig:
    n: int = 4
    model: str = "xxz"  # xxz | custom
    xxz_delta: float = 0.5
    custom_terms: List[Tuple[float, str]] = field(default_factory=list)
    temperatures: List[float] = field(default_factory=lambda: [1.0])
    sigma_grid: List[float] = field(default_factory=lambda: [0.0])
    runs_per_point: int = 10
    k_local: int = 2
    seed: int = 0
    epsilon_w: Optional[float] = None
    workers: int = 1

    def validate(self):
        for key, hint in _KEY_TYPES.items():
            value = getattr(self, key)
            if _READERS[hint] in (float, _float_list) and value is not None:
                if not np.isfinite(value).all():
                    raise ConfigError(f"[experiment] {key} = {value!r}: must be finite")
        if self.epsilon_w is not None and self.epsilon_w <= 0:
            raise ConfigError(f"[experiment] epsilon_w = {self.epsilon_w!r}: must be positive")
        if not all(math.isfinite(coeff) for coeff, _ in self.custom_terms):
            raise ConfigError("[terms] coefficients must be finite")
        if self.n < 2:
            raise ConfigError(f"[experiment] n = {self.n}: need at least 2 sites")
        if self.n > dense_limit():
            raise ConfigError(
                f"[experiment] n = {self.n}: above the dense limit {dense_limit()}"
            )
        if not 1 <= self.k_local <= self.n:
            raise ConfigError(f"[experiment] k_local = {self.k_local}: outside [1, n]")
        if not self.temperatures:
            raise ConfigError("[experiment] temperatures: empty grid")
        if any(t <= 0 for t in self.temperatures):
            raise ConfigError("[experiment] temperatures: must be positive")
        if not self.sigma_grid:
            raise ConfigError("[experiment] sigma_grid: empty grid")
        for sigma in self.sigma_grid:
            try:
                states.check_noise_level(sigma)
            except ValueError as exc:
                raise ConfigError(f"[experiment] sigma_grid: {exc}") from exc
        for key in ("temperatures", "sigma_grid"):
            grid = getattr(self, key)
            repeated = [value for i, value in enumerate(grid) if value in grid[:i]]
            if repeated:
                raise ConfigError(f"[experiment] {key}: {repeated[0]!r} is listed twice")
        if self.seed < 0:
            raise ConfigError(f"[experiment] seed = {self.seed}: must be nonnegative")
        if self.runs_per_point < 1:
            raise ConfigError("[experiment] runs_per_point: must be at least 1")
        if self.workers < 1:
            raise ConfigError("[experiment] workers: must be at least 1")
        if self.model not in ("xxz", "custom"):
            raise ConfigError(f"[experiment] model = {self.model!r}: unknown model")
        if self.model == "custom" and not self.custom_terms:
            raise ConfigError("[terms] empty: custom model needs at least one term")
        if self.model == "xxz" and self.custom_terms:
            raise ConfigError("[terms] given without model = custom")
        for _, text in self.custom_terms:
            try:
                pauli.parse_texts([text], self.n)
            except ValueError as exc:
                raise ConfigError(f"[terms] {text!r}: {exc}") from exc

    def hamiltonian(self) -> PauliOperator:
        if self.model == "xxz":
            return models.xxz_chain(self.n, self.xxz_delta)
        return PauliOperator.from_terms(self.n, self.custom_terms)


def _float_list(raw: str) -> List[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


_READERS = {
    int: int,
    float: float,
    str: str,
    Optional[float]: float,
    List[float]: _float_list,
}

# the type of every [experiment] key; custom_terms is read from [terms]
_KEY_TYPES = {
    name: hint
    for name, hint in get_type_hints(ExperimentConfig).items()
    if name != "custom_terms"
}


def load_config(path) -> ExperimentConfig:
    cfg = _read_config(path)
    cfg.validate()
    return cfg


def _read_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = ExperimentConfig()
    if parser.has_section("experiment"):
        for key, raw in parser["experiment"].items():
            if key not in _KEY_TYPES:
                raise ConfigError(f"[experiment] {key}: unknown key")
            try:
                setattr(cfg, key, _READERS[_KEY_TYPES[key]](raw))
            except ValueError as exc:
                raise ConfigError(f"[experiment] {key} = {raw!r}: {exc}") from exc
    if parser.has_section("terms"):
        for key, raw in parser["terms"].items():
            coeff, _, text = raw.strip().partition(" ")
            try:
                cfg.custom_terms.append((float(coeff), text))
            except ValueError as exc:
                raise ConfigError(f"[terms] {key} = {raw!r}: expected '<coeff> <paulis>'") from exc
    return cfg


def _config_from_args(args) -> ExperimentConfig:
    """The config file's values, each overridden by its flag when that is given."""
    cfg = _read_config(args.config) if args.config else ExperimentConfig()
    for key in _KEY_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _string_basis(n: int, k_local: int) -> Tuple[List[PauliString], List[PauliOperator]]:
    """The geometrically k-local strings, as perturbing operators and as terms."""
    basis = enumerate_geometric_k_local(n, k_local)
    return basis, models.string_basis_operators(basis)


def _exact_tables(h_true, temperatures, basis, h_terms) -> Dict[float, ExpectationTable]:
    """The exact table of h_true at each temperature, on the strings the moments read."""
    needed = states.required_strings(basis, h_terms)
    return {t: build_table(gibbs_density(h_true, t), needed) for t in temperatures}


def _truth_vector(h_true: PauliOperator, basis: Sequence[PauliString], k_local: int) -> np.ndarray:
    """h_true's coefficients on the basis; a term outside the basis is a config error."""
    try:
        return models.coefficient_vector(h_true, basis)
    except ValueError as exc:
        raise ConfigError(f"truth Hamiltonian: {exc} of {k_local}-local strings") from exc


# -- gen ----------------------------------------------------------------------


def _format_temperature(t: float) -> str:
    text = repr(float(t))
    return text.replace(".", "p").replace("-", "m")


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    try:
        states.check_noise_level(args.sigma)
    except ValueError as exc:
        raise ConfigError(f"--sigma: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    h_true = cfg.hamiltonian()
    tables = _exact_tables(h_true, cfg.temperatures, *_string_basis(cfg.n, cfg.k_local))
    strings = h_true.strings()
    coefficients = [repr(h_true.terms[p].real) for p in strings]
    texts = pauli.texts(*pauli.masks(strings))
    written = []
    for t, table in tables.items():
        if args.sigma:
            table = add_noise(table, args.sigma, cfg.seed)
        stem = f"T{_format_temperature(t)}"
        table_path = os.path.join(args.out, f"table_{stem}.tsv")
        table.save(table_path)
        truth_path = os.path.join(args.out, f"truth_{stem}.txt")
        write_tsv(truth_path, {"n": cfg.n, "temperature": repr(t)}, zip(coefficients, texts))
        written.append(table_path)
    for path in written:
        print(path)
    return 0


def load_truth(path) -> Tuple[int, float, PauliOperator]:
    try:
        header, rows = read_tsv(path)
        if "n" not in header or "temperature" not in header:
            raise ValueError("lacks n/temperature headers")
        n = int(header["n"])
        temperature = float(header["temperature"])
        if not 0 < temperature < math.inf:
            raise ValueError(f"temperature {header['temperature']!r}: must be finite and positive")
        terms = [(float(coeff), text) for coeff, text in rows]
        for coeff, text in terms:
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient {coeff!r} of {text!r}: must be finite")
        if not any(coeff for coeff, _ in terms):
            raise ValueError("no nonzero coefficient")
        return n, temperature, PauliOperator.from_terms(n, terms)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"truth file {path}: {exc}") from exc


# -- learn --------------------------------------------------------------------


def cmd_learn(args) -> int:
    table = ExpectationTable.load(args.table)
    n_true, t_true, h_true = load_truth(args.truth) if args.truth else (table.n, None, None)
    if n_true != table.n:
        raise DimensionMismatch(f"truth file on {n_true} sites, table on {table.n}")
    k_local = ExperimentConfig.k_local if args.k_local is None else args.k_local
    if not 1 <= k_local <= table.n:
        raise ConfigError(f"--k-local {k_local}: outside [1, n] for a table on n = {table.n} sites")
    if args.epsilon_w is not None and not 0 < args.epsilon_w < math.inf:
        raise ConfigError(f"--epsilon-w {args.epsilon_w!r}: must be finite and positive")
    basis, h_terms = _string_basis(table.n, k_local)
    z_true = _truth_vector(h_true, basis, k_local) if args.truth else None
    assembler = MomentAssembler(basis, h_terms)
    try:
        result = reconstruct(
            table, assembler, ReconstructOptions(epsilon_w=args.epsilon_w)
        )
    except RECONSTRUCTION_FAILURES as exc:
        print(f"reconstruction failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    code, summary = VERDICTS[result.verdict]
    print(f"verdict: {result.verdict.value} ({summary})")
    if result.mu_star is not None:
        print(f"margin mu = {result.mu_star:.6e}")
    if result.t_star is not None:
        print(f"temperature T = {result.t_star:.6e}")
    print(f"kernel dimension q = {result.diagnostics.q}")
    if z_true is not None and result.y_star is not None:
        report = evaluate_recovery(result, z_true, t_true)
        print(f"recovery angle theta = {report.theta:.6e}")
        print(f"temperature ratio = {report.temperature_ratio:.6e}")
    if args.out:
        result.save(args.out)
    return code


# -- sweep --------------------------------------------------------------------

_WORKER_CTX: dict = {}


def _worker_init(cfg: ExperimentConfig, basis, h_terms, z_true: np.ndarray, exact_tables):
    """Hold ``run_sweep``'s basis, truth vector and exact tables; build this process's assembler."""
    _WORKER_CTX["cfg"] = cfg
    _WORKER_CTX["opts"] = ReconstructOptions(epsilon_w=cfg.epsilon_w)
    _WORKER_CTX["assembler"] = MomentAssembler(basis, h_terms)
    _WORKER_CTX["z_true"] = z_true
    _WORKER_CTX["tables"] = exact_tables


def _sweep_job(job: Tuple[int, int, int]) -> dict:
    sigma_idx, temp_idx, run_idx = job
    cfg: ExperimentConfig = _WORKER_CTX["cfg"]
    sigma = cfg.sigma_grid[sigma_idx]
    temperature = cfg.temperatures[temp_idx]
    exact = _WORKER_CTX["tables"][temperature]
    seed_seq = np.random.SeedSequence((cfg.seed, sigma_idx, temp_idx, run_idx))
    start = time.perf_counter()
    record = dict.fromkeys(SWEEP_COLUMNS, "")
    record.update(sigma_noise=sigma, temperature=temperature, run=run_idx)
    try:
        noisy = add_noise(exact, sigma, seed_seq)
        result = reconstruct(noisy, _WORKER_CTX["assembler"], _WORKER_CTX["opts"])
        record["verdict"] = result.verdict.value
        record["q"] = result.diagnostics.q
        if result.mu_star is not None:
            record["mu_star"] = repr(result.mu_star)
        if result.y_star is not None and result.t_star is not None:
            report = evaluate_recovery(result, _WORKER_CTX["z_true"], temperature)
            record["theta"] = repr(report.theta)
            record["temp_ratio"] = repr(report.temperature_ratio)
    except RECONSTRUCTION_FAILURES as exc:
        record["verdict"] = type(exc).__name__
    record["wall_ms"] = repr((time.perf_counter() - start) * 1e3)
    return record


def run_sweep(cfg: ExperimentConfig) -> Tuple[List[dict], List[dict]]:
    """Noise sweep over (sigma, temperature, run); deterministic per seed.

    Per-run noise seeds derive from (master seed, sigma index, temperature
    index, run index), so records are independent of worker scheduling.
    A truth term outside the k_local basis is a ConfigError before any run.
    """
    cfg.validate()
    h_true = cfg.hamiltonian()
    basis, h_terms = _string_basis(cfg.n, cfg.k_local)
    z_true = _truth_vector(h_true, basis, cfg.k_local)
    exact_tables = _exact_tables(h_true, cfg.temperatures, basis, h_terms)
    context = (cfg, basis, h_terms, z_true, exact_tables)

    jobs = [
        (si, ti, run)
        for si in range(len(cfg.sigma_grid))
        for ti in range(len(cfg.temperatures))
        for run in range(cfg.runs_per_point)
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_worker_init, initargs=context
        ) as pool:
            records = list(pool.map(_sweep_job, jobs, chunksize=4))
    else:
        _worker_init(*context)
        records = [_sweep_job(job) for job in jobs]

    records.sort(key=lambda rec: (rec["sigma_noise"], rec["temperature"], rec["run"]))
    aggregates = _aggregate(records)
    return records, aggregates


def _aggregate(records: List[dict]) -> List[dict]:
    grouped: Dict[Tuple[float, float], List[dict]] = {}
    for rec in records:
        grouped.setdefault((rec["sigma_noise"], rec["temperature"]), []).append(rec)
    out = []
    for (sigma, temperature), group in sorted(grouped.items()):
        thetas = [float(r["theta"]) for r in group if r["theta"] != ""]
        ratios = [float(r["temp_ratio"]) for r in group if r["temp_ratio"] != ""]
        failed = sum(1 for r in group if r["theta"] == "")
        out.append(
            {
                "sigma_noise": sigma,
                "temperature": temperature,
                "runs": len(group),
                "failed": failed,
                "theta_mean": repr(statistics.fmean(thetas)) if thetas else "",
                "theta_std": repr(statistics.pstdev(thetas)) if thetas else "",
                "temp_ratio_mean": repr(statistics.fmean(ratios)) if ratios else "",
                "temp_ratio_std": repr(statistics.pstdev(ratios)) if ratios else "",
            }
        )
    return out


def write_sweep_csv(records: List[dict], aggregates: List[dict], out_dir):
    """Write records.csv and aggregate.csv, each with its rows' keys as the header."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, rows in (("records.csv", records), ("aggregate.csv", aggregates)):
        paths.append(os.path.join(out_dir, name))
        with open(paths[-1], "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return tuple(paths)


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    for path in write_sweep_csv(*run_sweep(cfg), args.out_dir):
        print(path)
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        gns.check_battery_args(args.n, args.instances, args.seed)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    results = gns.run_battery(n_max=args.n, seed=args.seed, instances=args.instances)
    failed = 0
    for check in results:
        print(check.line())
        if not check.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# -- entry point --------------------------------------------------------------


def _add_key_flags(parser: argparse.ArgumentParser, keys):
    """One flag per config key, ``--xxz-delta`` for ``xxz_delta``, read as the file's value is."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), type=_READERS[_KEY_TYPES[key]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslearn",
        description="Hamiltonian and temperature reconstruction from thermal expectation data",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write expectation tables", allow_abbrev=False)
    gen.add_argument("--config", help="INI-style experiment config")
    _add_key_flags(gen, ["n", "model", "xxz_delta", "temperatures", "seed", "k_local"])
    gen.add_argument("--sigma", type=float, default=0.0, help="optional Gaussian noise level")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    learn = sub.add_parser("learn", help="reconstruct from a table file", allow_abbrev=False)
    learn.add_argument("--table", required=True)
    learn.add_argument("--truth", help="truth file for recovery metrics")
    learn.add_argument("--out", help="write the result record here")
    _add_key_flags(learn, ["k_local", "epsilon_w"])
    learn.set_defaults(func=cmd_learn)

    sweep = sub.add_parser("sweep", help="noise sweep benchmark", allow_abbrev=False)
    sweep.add_argument("--config", help="INI-style experiment config")
    _add_key_flags(sweep, _KEY_TYPES)
    sweep.add_argument("--out-dir", required=True)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser(
        "verify", help="run the brute-force verification battery", allow_abbrev=False
    )
    verify.add_argument("--n", type=int, default=2)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--instances", type=int, default=100)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except (GibbsLearnError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
