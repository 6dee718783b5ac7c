import argparse
import csv
import dataclasses
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gibbslearn import cli, moments, states
from gibbslearn.cli import (
    ExperimentConfig,
    _config_from_args,
    build_parser,
    load_config,
    load_truth,
    main,
    run_sweep,
    write_sweep_csv,
)
from gibbslearn.errors import ConfigError
from gibbslearn.models import string_basis_operators, xxz_chain
from gibbslearn.pauli import PauliString, canonical_order, enumerate_geometric_k_local
from gibbslearn.states import ExpectationTable, build_table, gibbs_density, required_strings


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# a value other than the default for every [experiment] key
KEY_VALUES = {
    "n": "5",
    "model": "custom",
    "xxz_delta": "0.25",
    "temperatures": "1,2",
    "sigma_grid": "1e-6,1e-5",
    "runs_per_point": "3",
    "k_local": "1",
    "seed": "9",
    "epsilon_w": "1e-7",
    "workers": "2",
}


def small_sweep_config(**overrides):
    cfg = ExperimentConfig(
        n=3,
        model="xxz",
        temperatures=[1.0],
        sigma_grid=[1e-6, 1e-4],
        runs_per_point=2,
        k_local=2,
        seed=11,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def without_wall(sweep):
    """A ``run_sweep`` result with each record's wall_ms left out."""
    records, aggregates = sweep
    return [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in records], aggregates


@pytest.fixture
def stub_pool(monkeypatch):
    """Replace the sweep's process pool by one that runs in this process; returns its sizes."""
    sizes = []

    class StubPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(cli, "_WORKER_CTX", {})
    return sizes


def strip_wall(path):
    with open(path) as handle:
        rows = list(csv.reader(handle))
    return [row[:-1] if row and row[-1] not in ("wall_ms",) else row[:-1] for row in rows]


class TestConfig:
    def test_validation_errors(self):
        cfg = ExperimentConfig(n=1)
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ExperimentConfig(n=3, temperatures=[])
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ExperimentConfig(n=3, sigma_grid=[-1.0])
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ExperimentConfig(n=99)
        with pytest.raises(ConfigError):
            cfg.validate()
        # a repeated grid value would write one gen file twice and give sweep rows one key
        cfg = ExperimentConfig(n=3, temperatures=[2.0, 1.0, 2.0])
        with pytest.raises(ConfigError, match=r"temperatures: 2\.0 is listed twice"):
            cfg.validate()
        cfg = ExperimentConfig(n=3, sigma_grid=[0.0, 1e-6, -0.0])
        with pytest.raises(ConfigError, match=r"sigma_grid: -0\.0 is listed twice"):
            cfg.validate()
        cfg = ExperimentConfig(n=3, seed=-1)
        with pytest.raises(ConfigError, match="seed = -1: must be nonnegative"):
            cfg.validate()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\n"
            "n = 4\n"
            "model = xxz\n"
            "xxz_delta = 0.5\n"
            "temperatures = 1, 2\n"
            "sigma_grid = 1e-6 1e-5\n"
            "runs_per_point = 3\n"
            "k_local = 2\n"
            "seed = 9\n"
        )
        cfg = load_config(path)
        assert cfg.n == 4 and cfg.temperatures == [1.0, 2.0]
        assert cfg.sigma_grid == [1e-6, 1e-5] and cfg.runs_per_point == 3

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nn = 4\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    @pytest.mark.parametrize(
        "key", ["include_identity", "project_delta", "xxz_anisotropy_axis", "epsilon_w_override"]
    )
    def test_removed_key_is_config_error(self, tmp_path, capsys, key):
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nn = 4\n{key} = false\n")
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert f"{key}: unknown key" in capsys.readouterr().err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nn = four\n")
        with pytest.raises(ConfigError, match="four"):
            load_config(path)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, term, message",
        [
            ("n = 2\n", "-1.0 X0", "[terms] given without model = custom"),
            ("n = 2\nmodel = custom\n", "nan X0", "[terms] coefficients must be finite"),
            (
                "n = 2\nmodel = custom\n",
                "strong X0",
                "[terms] t1 = 'strong X0': expected '<coeff> <paulis>'",
            ),
            (
                "n = 4\nmodel = custom\n",
                "1.0 Q0 X1",
                "[terms] 'Q0 X1': cannot parse Pauli token 'Q0'",
            ),
            ("n = 4\nmodel = custom\n", "1.0 X0 X7", "[terms] 'X0 X7': site 7 outside [0, 4)"),
            (
                "n = 4\nmodel = custom\n",
                "1.0 X0 X0",
                "[terms] 'X0 X0': site 0 listed twice in 'X0 X0'",
            ),
        ],
        ids=[
            "no-custom-model",
            "nan-coefficient",
            "malformed-line",
            "unknown-letter",
            "site-out-of-range",
            "site-twice",
        ],
    )
    def test_bad_terms_are_config_error(self, tmp_path, capsys, experiment, term, message):
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\n{experiment}[terms]\nt1 = {term}\n")
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "x").exists()

    def test_bad_term_is_config_error_in_sweep(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nn = 4\nmodel = custom\n[terms]\nt1 = 1.0 X0 X7\n")
        assert main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "x")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "config error: [terms] 'X0 X7': site 7 outside [0, 4)"
        ]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--sigma", "-1"],
            ["gen", "--sigma", "nan"],
            ["gen", "--temperatures", "nan"],
            ["gen", "--temperatures", "inf"],
            ["gen", "--xxz-delta", "nan"],
            ["gen", "--model", "bogus"],
            ["sweep", "--sigma-grid", "nan"],
            # validation raises before a pool starts
            ["sweep", "--workers", "0"],
            ["sweep", "--workers", "-1"],
            ["gen", "--model", "custom"],
            ["gen", "--n", "3", "--k-local", "0"],
            ["gen", "--n", "3", "--k-local", "4"],
            ["gen", "--temperatures", "0"],
            ["gen", "--temperatures", "1,-2"],
            ["sweep", "--sigma-grid", ""],
            ["sweep", "--runs-per-point", "0"],
            ["sweep", "--epsilon-w", "-1"],
            ["sweep", "--epsilon-w", "0"],
            ["gen", "--temperatures", "1,1"],
            ["sweep", "--temperatures", "1,2,1.0"],
            ["sweep", "--sigma-grid", "1e-6,1e-6"],
            ["gen", "--seed", "-1"],
            ["gen", "--seed", "-1", "--sigma", "1e-6"],
            ["sweep", "--seed", "-1"],
            # a finite noise level whose square overflows
            ["gen", "--sigma", "1e200"],
            ["sweep", "--sigma-grid", "1e200"],
        ],
    )
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out" if argv[0] == "gen" else "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, command",
        [("abc", "gen"), ("1.5", "gen"), ("0", "gen"), ("-3", "gen"), ("abc", "sweep"),
         ("abc", "verify")],
    )
    def test_bad_dense_limit_is_config_error(self, tmp_path, capsys, monkeypatch, value, command):
        monkeypatch.setenv("GIBBSLEARN_DENSE_LIMIT", value)
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--n", "4", "--out", str(out)],
            "sweep": ["sweep", "--out-dir", str(out)],
            "verify": ["verify", "--n", "1", "--instances", "1"],
        }[command]
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"config error: GIBBSLEARN_DENSE_LIMIT = {value!r}: "
            "must be a whole number of at least 1"
        ]
        assert not out.exists()

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing.ini"
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot read config file {path}"
        ]

    def test_gen_takes_k_local_from_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nn = 4\nk_local = 1\ntemperatures = 1\n")
        out = tmp_path / "tables"
        assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
        table_path = out / "table_T1p0.tsv"
        basis = enumerate_geometric_k_local(4, 1)
        x, z = required_strings(basis, string_basis_operators(basis))
        order = canonical_order(x, z)
        table = ExpectationTable.load(table_path)
        assert np.array_equal(table.x, x[order]) and np.array_equal(table.z, z[order])
        # learn reads no config file and defaults to 2-local terms, whose
        # closure needs strings this 1-local table lacks
        assert main(["learn", "--table", str(table_path)]) == 4

    def test_custom_terms(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nn = 2\nmodel = custom\n"
            "[terms]\nterm1 = -1.0 X0 X1\nterm2 = -0.5 Z0 Z1\n"
        )
        cfg = load_config(path)
        h = cfg.hamiltonian()
        assert len(h.terms) == 2

    def test_flag_overrides_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nn = 4\ntemperatures = 1\nsigma_grid = 1e-6\nseed = 1\n"
        )
        args = build_parser().parse_args(
            ["sweep", "--config", str(path), "--seed", "9", "--out-dir", "x"]
        )
        cfg = _config_from_args(args)
        assert cfg.n == 4 and cfg.seed == 9  # file value kept, flag wins
        # the file is checked only with the flags applied
        path.write_text("[experiment]\nn = 2\n[terms]\nt1 = -1.0 X0\n")
        args = build_parser().parse_args(
            ["sweep", "--config", str(path), "--model", "custom", "--out-dir", "x"]
        )
        assert _config_from_args(args).custom_terms == [(-1.0, "X0")]


class TestGenLearn:
    def test_gen_learn_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "tables"
        rc = main(
            [
                "gen",
                "--n",
                "3",
                "--temperatures",
                "1.0",
                "--k-local",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        table_path = out / "table_T1p0.tsv"
        truth_path = out / "truth_T1p0.txt"
        assert table_path.exists() and truth_path.exists()
        n, t_true, h_true = load_truth(truth_path)
        assert n == 3 and t_true == 1.0
        assert len(h_true.terms) == 6  # two bonds, three couplings each

        result_path = tmp_path / "result.txt"
        rc = main(
            [
                "learn",
                "--table",
                str(table_path),
                "--truth",
                str(truth_path),
                "--k-local",
                "2",
                "--out",
                str(result_path),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict: Candidate" in captured.out
        assert "recovery angle" in captured.out
        assert result_path.exists()

    def test_gen_learn_n10(self, tmp_path, capsys):
        # n=10 XXZ, the size of the benchmark's learn workload
        sigma = 1e-8
        out = tmp_path / "tables"
        argv = ["gen", "--n", "10", "--temperatures", "1", "--sigma", str(sigma), "--out", str(out)]
        assert main(argv) == 0
        record = tmp_path / "result.txt"
        rc = main(["learn", "--table", str(out / "table_T1p0.tsv"),
                   "--truth", str(out / "truth_T1p0.txt"), "--out", str(record)])
        assert rc == 0
        assert "verdict = Candidate\n" in record.read_text()
        theta = float(re.search(r"recovery angle theta = (\S+)", capsys.readouterr().out)[1])
        assert theta <= 1e-6 + 200 * sigma

    def test_truth_file_needs_n_and_temperature(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# n = 2\n-1.0\tX0 X1\n")
        with pytest.raises(ConfigError, match="n/temperature"):
            load_truth(path)

    def test_gen_rejects_oversize(self, tmp_path):
        rc = main(["gen", "--n", "64", "--out", str(tmp_path / "x")])
        assert rc == 4

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# n = 2\nX0 X1\t0.1\nX1 X0\t0.2\n", "X0 X1 is listed twice"),
            ("# n = 2\nX0 X1\tnan\n", "X0 X1 has the value nan"),
            ("# n = 2\nZ1\t-inf\n", "Z1 has the value -inf"),
            ("X0 X1\t0.1\n", "no 'n' header"),
            ("# n = 2\nX0 W1\t0.1\n", "cannot parse Pauli token 'W1'"),
        ],
        ids=["duplicate", "nan", "inf", "no-n", "bad-row"],
    )
    def test_learn_bad_table_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "table.tsv"
        path.write_text(text)
        assert main(["learn", "--table", str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: BadTable:") and message in err[0]

    @pytest.mark.parametrize(
        "header",
        ["noise_sigma = nan", "noise_sigma = inf", "noise_sigma = -inf", "noise_sigma = -1e-3",
         "noise_sigma = 1e200", "seed = -5"],
    )
    def test_learn_bad_noise_header(self, tmp_path, capsys, header):
        # the noise level sets the W threshold, and a negative seed reproduces no draw
        assert main(["gen", "--n", "4", "--temperatures", "1", "--out", str(tmp_path)]) == 0
        path = tmp_path / "table_T1p0.tsv"
        key = header.split(" = ")[0]
        path.write_text(re.sub(rf"^# {key} = .*$", f"# {header}", path.read_text(), flags=re.M))
        capsys.readouterr()
        assert main(["learn", "--table", str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: BadTable:")

    def test_learn_noise_level_overflowing_w_threshold(self, tmp_path, capsys):
        # sigma = 1e153 has a finite square, but 400 sigma^2 sqrt(m) overflows:
        # an infinite W threshold would admit every direction as a Candidate
        assert main(["gen", "--n", "4", "--temperatures", "1", "--out", str(tmp_path)]) == 0
        path = tmp_path / "table_T1p0.tsv"
        header = re.compile(r"^# noise_sigma = .*$", re.M)
        path.write_text(header.sub("# noise_sigma = 1e153", path.read_text()))
        capsys.readouterr()
        assert main(["learn", "--table", str(path)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: GibbsLearnError: noise level 1e+153 overflows the W threshold "
            "400 sigma^2 sqrt(m) with m = 21996"
        ]

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_learn_unreadable_table_file(self, tmp_path, capsys, where):
        path = tmp_path / "table.tsv"
        if where == "directory":
            path.mkdir()
        assert main(["learn", "--table", str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: BadTable: table file {path}:")

    def test_learn_not_stationary_exit_code(self, tmp_path):
        # a state far from thermal for the probed terms: maximally mixed
        # has every direction stationary, so instead use a learn run whose
        # kernel is empty: X-basis data against a Z-thermal state at k=1
        from gibbslearn.models import string_basis_operators
        from gibbslearn.moments import MomentAssembler
        from gibbslearn.pauli import PauliOperator, all_strings
        from gibbslearn.states import build_table, gibbs_density

        # craft a table whose k_local=1 reconstruction terminates immediately:
        # a random pure-phase rotation of a thermal state leaves no 1-local
        # conserved direction on two sites
        h = PauliOperator.from_terms(
            2, [(-1.0, "X0 X1"), (-0.6, "Z0"), (0.4, "Y0 Z1")]
        )
        rho = gibbs_density(h, 0.7)
        b = all_strings(2, include_identity=False)
        h_terms = string_basis_operators(b[:1])
        asm = MomentAssembler(b, h_terms)
        table = build_table(rho, required_strings(b, h_terms))
        path = tmp_path / "table.tsv"
        table.save(path)
        rc = main(["learn", "--table", str(path), "--k-local", "1"])
        assert rc in (2, 3)  # terminates without a candidate

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--k-local", "0"], "--k-local 0: outside [1, n] for a table on n = 4 sites"),
            (["--k-local", "5"], "--k-local 5: outside [1, n] for a table on n = 4 sites"),
            (["--epsilon-w", "nan"], "--epsilon-w nan: must be finite and positive"),
            (["--epsilon-w", "inf"], "--epsilon-w inf: must be finite and positive"),
            (["--epsilon-w", "-1"], "--epsilon-w -1.0: must be finite and positive"),
            (["--epsilon-w", "0"], "--epsilon-w 0.0: must be finite and positive"),
        ],
        ids=["k-local-0", "k-local-above-n", "eps-nan", "eps-inf", "eps-negative", "eps-zero"],
    )
    def test_learn_refuses_basis_settings(self, tables_n4_n5, tmp_path, capsys, argv, message):
        # epsilon_w <= 0 keeps no direction: the kernel test is a strict
        # < on a spectrum clipped at 0
        out = tmp_path / "result.txt"
        table = str(tables_n4_n5 / "n4" / "table_T1p0.tsv")
        assert main(["learn", "--table", table, "--out", str(out), *argv]) == 4
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    def test_learn_not_gibbs_exit_code(self, tmp_path, capsys):
        # an equal mixture of two temperatures is thermal for no Hamiltonian
        # in the 2-local span, and the program certifies it
        n = 4
        h = xxz_chain(n, 0.5)
        mixed = 0.5 * (gibbs_density(h, 1.0) + gibbs_density(h, 10.0))
        basis = enumerate_geometric_k_local(n, 2)
        table = build_table(mixed, required_strings(basis, string_basis_operators(basis)))
        table.save(tmp_path / "table.tsv")
        out = tmp_path / "result.txt"
        assert main(["learn", "--table", str(tmp_path / "table.tsv"), "--out", str(out)]) == 3
        assert "verdict: NotGibbs" in capsys.readouterr().out
        record = dict(line.split(" = ", 1) for line in out.read_text().splitlines())
        assert record["verdict"] == "NotGibbs"
        assert float(record["mu_star"]) == pytest.approx(-0.352, abs=1e-3)

    def test_learn_normalization_degenerate(self, tmp_path, capsys):
        # on 1-local terms the kernel is the total magnetization of the XXZ
        # chain, whose expectation vanishes: the normalization has no solution
        out = tmp_path / "tables"
        assert main(["gen", "--n", "3", "--temperatures", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["learn", "--table", str(out / "table_T1p0.tsv"), "--k-local", "1"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "reconstruction failed: NormalizationDegenerate: all kernel directions have "
            "vanishing expectation; the normalization hyperplane is empty"
        ]


@pytest.fixture(scope="module")
def tables_n4_n5(tmp_path_factory):
    """Exact n=4 and n=5 tables and their truth files, as ``gen`` writes them."""
    out = tmp_path_factory.mktemp("tables")
    for n in (4, 5):
        assert main(["gen", "--n", str(n), "--out", str(out / f"n{n}")]) == 0
    return out


class TestTruthFile:
    """Every fault of a ``learn --truth`` file is exit code 4 with one error line."""

    def learn_error(self, capsys, table, truth):
        rc = main(["learn", "--table", str(table), "--truth", str(truth)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 4 and len(err) == 1
        return err[0]

    def test_missing(self, tables_n4_n5, capsys):
        truth = tables_n4_n5 / "n4" / "absent.txt"
        err = self.learn_error(capsys, tables_n4_n5 / "n4" / "table_T1p0.tsv", truth)
        assert err.startswith(f"config error: truth file {truth}:")

    def test_non_numeric_coefficient(self, tables_n4_n5, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text("# n = 4\n# temperature = 1.0\n-1.0\tX0 X1\nstrong\tZ0 Z1\n")
        err = self.learn_error(capsys, tables_n4_n5 / "n4" / "table_T1p0.tsv", truth)
        assert err.startswith("config error: truth file") and "'strong'" in err

    def gen_truth(self, tables_n4_n5, tmp_path, edit):
        """The n=4 truth file ``gen`` wrote, with ``edit`` applied to its lines."""
        lines = (tables_n4_n5 / "n4" / "truth_T1p0.txt").read_text().splitlines()
        truth = tmp_path / "truth.txt"
        truth.write_text("".join(line + "\n" for line in edit(lines)))
        return truth

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_temperature_not_finite_and_positive(self, tables_n4_n5, tmp_path, capsys, value):
        def edit(lines):
            return [f"# temperature = {value}" if "temperature" in line else line for line in lines]

        truth = self.gen_truth(tables_n4_n5, tmp_path, edit)
        err = self.learn_error(capsys, tables_n4_n5 / "n4" / "table_T1p0.tsv", truth)
        assert err == (
            f"config error: truth file {truth}: temperature {value!r}: must be finite and positive"
        )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_coefficient_not_finite(self, tables_n4_n5, tmp_path, capsys, value):
        def edit(lines):
            # two header lines, then the first row, "-1.0<TAB>X0 X1"
            return [*lines[:2], value + "\t" + lines[2].split("\t")[1], *lines[3:]]

        truth = self.gen_truth(tables_n4_n5, tmp_path, edit)
        err = self.learn_error(capsys, tables_n4_n5 / "n4" / "table_T1p0.tsv", truth)
        assert err == (
            f"config error: truth file {truth}: coefficient {float(value)!r} of 'X0 X1': "
            "must be finite"
        )

    def test_all_coefficients_zero(self, tables_n4_n5, tmp_path, capsys):
        def edit(lines):
            return [line if line.startswith("#") else "0.0\t" + line.split("\t")[1]
                    for line in lines]

        truth = self.gen_truth(tables_n4_n5, tmp_path, edit)
        err = self.learn_error(capsys, tables_n4_n5 / "n4" / "table_T1p0.tsv", truth)
        assert err == f"config error: truth file {truth}: no nonzero coefficient"

    def test_other_site_count(self, tables_n4_n5, capsys):
        err = self.learn_error(
            capsys, tables_n4_n5 / "n4" / "table_T1p0.tsv", tables_n4_n5 / "n5" / "truth_T1p0.txt"
        )
        assert err == "error: DimensionMismatch: truth file on 5 sites, table on 4"

    def test_term_outside_basis(self, tmp_path, capsys):
        # an XX chain in a Z field keeps the total Z, a 1-local direction, so at
        # --k-local 1 the run reaches a verdict with coefficients; the truth's
        # 2-local terms have none on that basis, which is refused before the run
        terms = [f"-1.0 {a}{i} {a}{i + 1}" for i in range(3) for a in "XY"]
        terms += [f"0.4 Z{i}" for i in range(4)]
        config = tmp_path / "exp.ini"
        config.write_text(
            "[experiment]\nn = 4\nmodel = custom\ntemperatures = 1\n[terms]\n"
            + "".join(f"t{j} = {term}\n" for j, term in enumerate(terms))
        )
        out = tmp_path / "tables"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["--table", str(out / "table_T1p0.tsv"), "--truth", str(out / "truth_T1p0.txt")]
        assert main(["learn", *argv, "--k-local", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: truth Hamiltonian: operator term X0 X1 outside the basis of "
            "1-local strings"
        ]


def test_gen_and_learn_build_no_table_row_as_object(tmp_path, monkeypatch):
    # the table's strings stay uint64 masks from the closure to the file and
    # back; only the basis and the Hamiltonian's terms are PauliStrings
    built = []
    original = PauliString.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PauliString, "__post_init__", counting)
    out = tmp_path / "tables"
    assert main(["gen", "--n", "6", "--temperatures", "1,10", "--out", str(out)]) == 0
    assert 0 < len(built) < 200
    built.clear()
    args = ["--table", str(out / "table_T1p0.tsv"), "--truth", str(out / "truth_T1p0.txt")]
    assert main(["learn", *args]) == 0
    assert 0 < len(built) < 200


class TestSweep:
    def test_records_and_aggregate(self, tmp_path):
        cfg = small_sweep_config()
        records, aggregates = run_sweep(cfg)
        assert len(records) == 4
        rec_path, agg_path = write_sweep_csv(records, aggregates, tmp_path)
        with open(rec_path) as handle:
            rows = list(csv.DictReader(handle))
        assert [r["run"] for r in rows] == ["0", "1", "0", "1"]
        # noise can push the margin slightly negative (near-thermal verdict)
        assert all(r["verdict"] in ("Candidate", "NotGibbs") for r in rows)
        assert all(float(r["theta"]) >= 0 for r in rows)
        with open(agg_path) as handle:
            stats = list(csv.DictReader(handle))
        assert len(stats) == 2
        assert all(float(s["theta_mean"]) > 0 for s in stats)

    def test_determinism_serial(self, tmp_path):
        cfg = small_sweep_config()
        r1, a1 = run_sweep(cfg)
        r2, a2 = run_sweep(small_sweep_config())
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        write_sweep_csv(r1, a1, d1)
        write_sweep_csv(r2, a2, d2)
        assert strip_wall(d1 / "records.csv") == strip_wall(d2 / "records.csv")
        assert (d1 / "aggregate.csv").read_text() == (d2 / "aggregate.csv").read_text()

    def test_determinism_parallel(self, tmp_path):
        serial = small_sweep_config(workers=1)
        parallel = small_sweep_config(workers=2)
        r1, a1 = run_sweep(serial)
        r2, a2 = run_sweep(parallel)
        d1 = tmp_path / "serial"
        d2 = tmp_path / "parallel"
        write_sweep_csv(r1, a1, d1)
        write_sweep_csv(r2, a2, d2)
        assert strip_wall(d1 / "records.csv") == strip_wall(d2 / "records.csv")
        assert (d1 / "aggregate.csv").read_text() == (d2 / "aggregate.csv").read_text()

    def test_failure_rows_recorded(self):
        cfg = small_sweep_config(sigma_grid=[0.5])  # absurd noise: Gram breaks
        records, aggregates = run_sweep(cfg)
        assert all(r["theta"] == "" or float(r["theta"]) >= 0 for r in records)
        assert any(
            r["verdict"]
            in ("GramDegenerate", "DeltaNotPositive", "NotStationary", "SolverFailure")
            for r in records
        )
        assert aggregates[0]["runs"] == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_noise_level_overflowing_w_threshold(self, tmp_path, capsys, workers):
        # two runs, so that --workers 2 goes through a pool of two
        argv = ["--n", "3", "--temperatures", "1", "--sigma-grid", "1e153", "--runs-per-point",
                "2", "--workers", workers, "--out-dir", str(tmp_path / "out")]
        assert main(["sweep", *argv]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: GibbsLearnError: noise level 1")
        assert "overflows the W threshold" in err[0]

    def test_sweeps_in_threads_are_independent(self):
        # each sweep is passed to its own jobs, so two in one process read only their own
        configs = [
            ExperimentConfig(n=4, xxz_delta=delta, temperatures=[1.0], sigma_grid=[1e-8],
                             runs_per_point=6, seed=seed)
            for delta, seed in ((0.5, 1), (1.5, 2))
        ]
        solo = [without_wall(run_sweep(cfg)) for cfg in configs]
        together = [None, None]

        def sweep(i):
            together[i] = without_wall(run_sweep(configs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):
                threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert together == solo
                together = [None, None]
        finally:
            sys.setswitchinterval(interval)
        assert cli._WORKER_CTX == {}

    @pytest.mark.parametrize("workers, runs, sizes", [(5, 2, [2]), (3, 1, [])])
    def test_pool_is_sized_to_the_jobs(self, stub_pool, workers, runs, sizes):
        # a pool never has more processes than the sweep has jobs, and one job runs here
        cfg = small_sweep_config(sigma_grid=[1e-6], runs_per_point=runs)
        serial = without_wall(run_sweep(cfg))
        assert without_wall(run_sweep(dataclasses.replace(cfg, workers=workers))) == serial
        assert stub_pool == sizes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_string_closure_per_sweep(self, stub_pool, monkeypatch, workers):
        calls, read_products = [], states.read_products

        def counted(*args):
            calls.append(args)
            return read_products(*args)

        monkeypatch.setattr(states, "read_products", counted)
        monkeypatch.setattr(moments, "read_products", counted)
        run_sweep(small_sweep_config(workers=workers))
        assert len(calls) == 1
        assert stub_pool == ([2] if workers == 2 else [])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_truth_outside_basis(self, tmp_path, capsys, workers):
        # the XXZ chain's bonds have no coefficients on 1-local strings
        argv = ["--n", "4", "--k-local", "1", "--workers", workers, "--out-dir", str(tmp_path)]
        assert main(["sweep", *argv]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "config error: truth Hamiltonian: operator term X0 X1 outside the basis of "
            "1-local strings"
        ]


@pytest.mark.parametrize("command", ["gen", "sweep", "learn"])
def test_output_path_error_is_one_line(tables_n4_n5, tmp_path, capsys, monkeypatch, command):
    taken = tmp_path / "file"
    taken.write_text("")
    argv, error = {
        "gen": (["gen", "--n", "3", "--out", str(taken)], "FileExistsError"),
        "sweep": (["sweep", "--n", "3", "--out-dir", str(taken)], "FileExistsError"),
        "learn": (
            ["learn", "--table", str(tables_n4_n5 / "n4" / "table_T1p0.tsv"),
             "--out", str(tmp_path / "missing" / "r.txt")],
            "FileNotFoundError",
        ),
    }[command]
    if command == "sweep":
        # the output directory is made before the first reconstruction
        monkeypatch.setattr(cli, "reconstruct", None)
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {error}: ")


class TestVerifyCommand:
    def test_battery_runs(self, capsys):
        rc = main(["verify", "--n", "2", "--seed", "1", "--instances", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "[pass]" in captured.out
        assert "checks passed" in captured.out

    def test_site_limit(self, capsys):
        # refused before any check runs: one stderr line, nothing on stdout
        for argv, message in (
            (["--n", "5"], "1 <= n <= 4, not n=5"),
            (["--n", "0"], "1 <= n <= 4, not n=0"),
            (["--n", "-1"], "1 <= n <= 4, not n=-1"),
            (["--instances", "0"], "at least one instance, not 0"),
            (["--seed", "-1"], "nonnegative seed, not -1"),
        ):
            rc = main(["verify", *argv])
            captured = capsys.readouterr()
            assert rc == 2, argv
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and message in captured.err


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(
            ["gen", "--n", "6", "--xxz-delta", "0.5", "--k-local", "2", "--temperatures",
             "1.0", "--sigma", "1e-08", "--seed", "3", "--out", "t"]
        )
        assert args.n == 6 and args.sigma == 1e-8 and args.temperatures == [1.0]
        args = parser.parse_args(
            ["learn", "--table", "t.tsv", "--truth", "h.txt", "--k-local", "2", "--out",
             "r.txt", "--epsilon-w", "1e-6"]
        )
        assert args.table == "t.tsv" and args.epsilon_w == 1e-6
        args = parser.parse_args(
            ["sweep", "--n", "3", "--sigma-grid", "1e-5", "--runs-per-point", "2",
             "--workers", "2", "--out-dir", "/tmp/x"]
        )
        assert args.n == 3 and args.out_dir == "/tmp/x" and args.workers == 2
        args = parser.parse_args(["verify", "--n", "3", "--instances", "5"])
        assert args.n == 3 and args.instances == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--out", "t", "--workers", "2"],
            ["learn", "--table", "t.tsv", "--n", "6"],
            ["sweep", "--out-dir", "x", "--table", "t.tsv"],
            ["verify", "--k-local", "2"],
            # removed options
            ["learn", "--table", "t.tsv", "--include-identity"],
            ["learn", "--table", "t.tsv", "--project-delta"],
            ["learn", "--table", "t.tsv", "--dump-spectra", "x"],
            ["gen", "--out", "t", "--include-identity"],
            ["gen", "--out", "t", "--xxz-anisotropy-axis", "z"],
        ],
    )
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sigma", "1e-6", "--out-dir", "x"],  # not --sigma-grid
            ["sweep", "--out", "x"],  # not --out-dir
            ["gen", "--out", "t", "--sig", "1e-6"],  # not --sigma
        ],
    )
    def test_flag_prefix_not_expanded(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "custom_terms"]
    )
    def test_flag_and_config_key_agree(self, tmp_path, monkeypatch, key):
        # the parsed values alone: "custom" without [terms] would not validate
        monkeypatch.setattr(ExperimentConfig, "validate", lambda self: None)
        value = KEY_VALUES[key]
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\n{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        args = build_parser().parse_args(["sweep", flag, value, "--out-dir", "x"])
        assert _config_from_args(args) == load_config(path) != ExperimentConfig()

    def test_subcommands_take_the_readme_flags(self):
        table = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", README.read_text(), re.MULTILINE)
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(name for name, _ in table) == sorted(sub.choices)
        for name, flags in table:
            taken = {s for a in sub.choices[name]._actions for s in a.option_strings}
            assert taken - {"-h", "--help"} == set(flags.split()), name


@pytest.mark.parametrize("given, expect", [(None, "1"), ("2", "2")], ids=["unset", "set-to-2"])
def test_import_pins_one_blas_thread_unless_set(given, expect):
    # importing the package sets each BLAS thread count to 1 before numpy
    # loads, so the CLI and sweep workers run one thread; a set count wins
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    script = (
        "import os, sys; import gibbslearn; assert 'numpy' in sys.modules; "
        f"print(*(os.environ.get(name) for name in {names!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [expect, "1", "1"]
