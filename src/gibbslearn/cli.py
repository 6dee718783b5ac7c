"""Command-line front end: gen, learn, sweep, verify.

Exit codes for ``learn``: 0 candidate found, 2 no stationary direction,
3 certified non-Gibbs, 4 data or numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import gns, models, states
from .errors import (
    ConfigError,
    DeltaNotPositive,
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

AGGREGATE_COLUMNS = [
    "sigma_noise",
    "temperature",
    "runs",
    "failed",
    "theta_mean",
    "theta_std",
    "temp_ratio_mean",
    "temp_ratio_std",
]

# the failures a reconstruction reports instead of a verdict
RECONSTRUCTION_FAILURES = (
    GramDegenerate, DeltaNotPositive, NormalizationDegenerate, SolverFailure
)

VERDICT_SUMMARY = {
    Verdict.NOT_STATIONARY: (
        "no direction in the candidate span leaves the state stationary"
    ),
    Verdict.NOT_GIBBS: (
        "certified: the state is not a thermal state of any Hamiltonian "
        "in the candidate span"
    ),
    Verdict.CANDIDATE: "candidate Hamiltonian and temperature recovered",
}


@dataclass
class ExperimentConfig:
    n: int = 4
    model: str = "xxz"  # xxz | custom
    xxz_delta: float = 0.5
    xxz_anisotropy_axis: str = "z"
    custom_terms: List[Tuple[float, str]] = field(default_factory=list)
    temperatures: List[float] = field(default_factory=lambda: [1.0])
    sigma_grid: List[float] = field(default_factory=lambda: [0.0])
    runs_per_point: int = 10
    k_local: int = 2
    seed: int = 0
    epsilon_w_override: Optional[float] = None
    workers: int = 1

    def validate(self):
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
        if any(s < 0 for s in self.sigma_grid):
            raise ConfigError("[experiment] sigma_grid: must be nonnegative")
        if self.runs_per_point < 1:
            raise ConfigError("[experiment] runs_per_point: must be at least 1")
        if self.model not in ("xxz", "custom"):
            raise ConfigError(f"[experiment] model = {self.model!r}: unknown model")
        if self.model == "custom" and not self.custom_terms:
            raise ConfigError("[terms] empty: custom model needs at least one term")

    def hamiltonian(self) -> PauliOperator:
        if self.model == "xxz":
            return models.xxz_chain(self.n, self.xxz_delta, self.xxz_anisotropy_axis)
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
    cfg.validate()
    return cfg


def _config_from_args(args) -> ExperimentConfig:
    """The config file's values, each overridden by its flag when that is given."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
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


# -- gen ----------------------------------------------------------------------


def _format_temperature(t: float) -> str:
    text = repr(float(t))
    return text.replace(".", "p").replace("-", "m")


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    h_true = cfg.hamiltonian()
    basis, h_terms = _string_basis(cfg.n, cfg.k_local)
    needed = states.required_strings(basis, h_terms)
    written = []
    for t in cfg.temperatures:
        rho = gibbs_density(h_true, t)
        table = build_table(rho, needed)
        if args.sigma:
            table = add_noise(table, args.sigma, cfg.seed)
        stem = f"T{_format_temperature(t)}"
        table_path = os.path.join(args.out, f"table_{stem}.tsv")
        table.save(table_path)
        truth_path = os.path.join(args.out, f"truth_{stem}.txt")
        write_tsv(
            truth_path,
            {"n": cfg.n, "temperature": repr(t)},
            ((repr(h_true.terms[p].real), p.to_text()) for p in h_true.strings()),
        )
        written.append(table_path)
    for path in written:
        print(path)
    return 0


def load_truth(path) -> Tuple[int, float, PauliOperator]:
    header, rows = read_tsv(path)
    if "n" not in header or "temperature" not in header:
        raise ConfigError(f"truth file {path} lacks n/temperature headers")
    n = int(header["n"])
    terms = [(float(coeff), text) for coeff, text in rows]
    return n, float(header["temperature"]), PauliOperator.from_terms(n, terms)


# -- learn --------------------------------------------------------------------


def cmd_learn(args) -> int:
    table = ExpectationTable.load(args.table)
    k_local = ExperimentConfig.k_local if args.k_local is None else args.k_local
    basis, h_terms = _string_basis(table.n, k_local)
    assembler = MomentAssembler(basis, h_terms)
    try:
        result = reconstruct(
            table, assembler, ReconstructOptions(epsilon_w=args.epsilon_w_override)
        )
    except RECONSTRUCTION_FAILURES as exc:
        print(f"reconstruction failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    print(f"verdict: {result.verdict.value} ({VERDICT_SUMMARY[result.verdict]})")
    if result.mu_star is not None:
        print(f"margin mu = {result.mu_star:.6e}")
    if result.t_star is not None:
        print(f"temperature T = {result.t_star:.6e}")
    print(f"kernel dimension q = {result.diagnostics.q}")
    if args.truth and result.y_star is not None:
        _, t_true, h_true = load_truth(args.truth)
        z_true = models.coefficient_vector(h_true, basis)
        report = evaluate_recovery(result, z_true, t_true)
        print(f"recovery angle theta = {report.theta:.6e}")
        print(f"temperature ratio = {report.temperature_ratio:.6e}")
    if args.out:
        result.save(args.out)
    if result.verdict is Verdict.CANDIDATE:
        return 0
    if result.verdict is Verdict.NOT_STATIONARY:
        return 2
    return 3


# -- sweep --------------------------------------------------------------------

_WORKER_CTX: dict = {}


def _worker_init(cfg: ExperimentConfig, exact_tables: Dict[float, ExpectationTable]):
    basis, h_terms = _string_basis(cfg.n, cfg.k_local)
    _WORKER_CTX["cfg"] = cfg
    _WORKER_CTX["opts"] = ReconstructOptions(epsilon_w=cfg.epsilon_w_override)
    _WORKER_CTX["assembler"] = MomentAssembler(basis, h_terms)
    _WORKER_CTX["z_true"] = models.coefficient_vector(cfg.hamiltonian(), basis)
    _WORKER_CTX["tables"] = exact_tables


def _sweep_job(job: Tuple[int, int, int]) -> dict:
    sigma_idx, temp_idx, run_idx = job
    cfg: ExperimentConfig = _WORKER_CTX["cfg"]
    sigma = cfg.sigma_grid[sigma_idx]
    temperature = cfg.temperatures[temp_idx]
    exact = _WORKER_CTX["tables"][temperature]
    seed_seq = np.random.SeedSequence((cfg.seed, sigma_idx, temp_idx, run_idx))
    start = time.perf_counter()
    record = {
        "sigma_noise": sigma,
        "temperature": temperature,
        "run": run_idx,
        "theta": "",
        "temp_ratio": "",
        "mu_star": "",
        "verdict": "",
        "q": "",
    }
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
    """
    cfg.validate()
    h_true = cfg.hamiltonian()
    basis, h_terms = _string_basis(cfg.n, cfg.k_local)
    needed = states.required_strings(basis, h_terms)
    exact_tables = {t: build_table(gibbs_density(h_true, t), needed) for t in cfg.temperatures}

    jobs = [
        (si, ti, run)
        for si in range(len(cfg.sigma_grid))
        for ti in range(len(cfg.temperatures))
        for run in range(cfg.runs_per_point)
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=_worker_init,
            initargs=(cfg, exact_tables),
        ) as pool:
            records = list(pool.map(_sweep_job, jobs, chunksize=4))
    else:
        _worker_init(cfg, exact_tables)
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
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.csv")
    with open(records_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: rec.get(k, "") for k in SWEEP_COLUMNS})
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(aggregate_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=AGGREGATE_COLUMNS)
        writer.writeheader()
        for row in aggregates:
            writer.writerow(row)
    return records_path, aggregate_path


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    records, aggregates = run_sweep(cfg)
    records_path, aggregate_path = write_sweep_csv(records, aggregates, args.out_dir)
    print(records_path)
    print(aggregate_path)
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.n > gns.GNS_SITE_LIMIT:
        print(
            f"verification battery limited to n <= {gns.GNS_SITE_LIMIT}", file=sys.stderr
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslearn",
        description="Hamiltonian and temperature reconstruction from thermal expectation data",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups, each shared by the subcommands that read it
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", help="INI-style experiment config")
    experiment.add_argument("--n", type=int, default=None)
    experiment.add_argument("--model", choices=["xxz", "custom"], default=None)
    experiment.add_argument("--xxz-delta", dest="xxz_delta", type=float, default=None)
    experiment.add_argument(
        "--xxz-anisotropy-axis",
        dest="xxz_anisotropy_axis",
        choices=["z", "y"],
        default=None,
    )
    experiment.add_argument(
        "--temperatures", type=_float_list, default=None, help="comma-separated list"
    )
    experiment.add_argument("--seed", type=int, default=None)

    basis = argparse.ArgumentParser(add_help=False)
    basis.add_argument("--k-local", dest="k_local", type=int, default=None)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--epsilon-w", dest="epsilon_w_override", type=float, default=None)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--sigma-grid", dest="sigma_grid", type=_float_list, default=None)
    grid.add_argument("--runs-per-point", dest="runs_per_point", type=int, default=None)
    grid.add_argument("--workers", type=int, default=None)

    gen = sub.add_parser(
        "gen", parents=[experiment, basis], help="write expectation tables", allow_abbrev=False
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--sigma", type=float, default=0.0, help="optional Gaussian noise level"
    )
    gen.set_defaults(func=cmd_gen)

    learn = sub.add_parser(
        "learn", parents=[basis, solver], help="reconstruct from a table file",
        allow_abbrev=False,
    )
    learn.add_argument("--table", required=True)
    learn.add_argument("--truth", default=None, help="truth file for recovery metrics")
    learn.add_argument("--out", default=None, help="write the result record here")
    learn.set_defaults(func=cmd_learn)

    sweep = sub.add_parser(
        "sweep", parents=[experiment, basis, solver, grid], help="noise sweep benchmark",
        allow_abbrev=False,
    )
    sweep.add_argument("--out-dir", dest="out_dir", required=True)
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
    except GibbsLearnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
