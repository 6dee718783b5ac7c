import csv

import pytest

from gibbslearn.cli import (
    ExperimentConfig,
    build_parser,
    load_config,
    load_truth,
    main,
    run_sweep,
    write_sweep_csv,
)
from gibbslearn.errors import ConfigError
from gibbslearn.models import string_basis_operators
from gibbslearn.pauli import PauliString, enumerate_geometric_k_local, from_masks
from gibbslearn.states import ExpectationTable, required_strings


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

    @pytest.mark.parametrize("key", ["include_identity", "project_delta"])
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

    def test_gen_takes_k_local_from_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nn = 4\nk_local = 1\ntemperatures = 1\n")
        out = tmp_path / "tables"
        assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
        table_path = out / "table_T1p0.tsv"
        basis = enumerate_geometric_k_local(4, 1)
        expect = required_strings(basis, string_basis_operators(basis))
        table = ExpectationTable.load(table_path)
        assert from_masks(4, table.x, table.z) == sorted(expect, key=PauliString.sort_key)
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
        from gibbslearn.cli import _config_from_args

        cfg = _config_from_args(args)
        assert cfg.n == 4 and cfg.seed == 9  # file value kept, flag wins


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
        table = build_table(rho, asm.required_strings())
        path = tmp_path / "table.tsv"
        table.save(path)
        rc = main(["learn", "--table", str(path), "--k-local", "1"])
        assert rc in (2, 3)  # terminates without a candidate


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


class TestVerifyCommand:
    def test_battery_runs(self, capsys):
        rc = main(["verify", "--n", "2", "--seed", "1", "--instances", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "[pass]" in captured.out
        assert "checks passed" in captured.out

    def test_site_limit(self, capsys):
        rc = main(["verify", "--n", "5"])
        assert rc == 2


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
        assert args.table == "t.tsv" and args.epsilon_w_override == 1e-6
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
