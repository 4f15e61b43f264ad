"""Command-line interface tests: exit codes, output formats, determinism.

Most cases call main() in process; the module entry point itself is covered
once through a subprocess.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import specteig
from specteig import cli
from specteig.cli import main

MATRIX_TNS = "order 2\ndim 2\n1 1 1.0\n2 2 -2.0\n"
IDENTITY_TNS = "order 2\ndim 2\n1 1 1.0\n2 2 1.0\n"
INDEFINITE_TNS = "order 2\ndim 2\n1 1 1.0\n2 2 -2.0\n"


@pytest.fixture(autouse=True)
def _isolate(monkeypatch, tmp_path):
    monkeypatch.delenv("SPECTEIG_SEED", raising=False)
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.tns"
    path.write_text(MATRIX_TNS)
    return str(path)


def eigen_args(path, *extra):
    return ["eigen", path, "--kind", "z", "--trials", "8",
            "--eps", "1e-12", "--tol", "1e-6", "--seed", "3", *extra]


class TestParserErrors:
    def test_no_subcommand_exits_with_input_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_choice_value(self, matrix_file):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", matrix_file, "--kind", "q"])
        assert exc.value.code == 1

    def test_kind_b_rejected(self, matrix_file):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", matrix_file, "--kind", "b", "--b", matrix_file])
        assert exc.value.code == 1

    def test_lambda_sign_rejected(self):
        # the multiplier update has one sign, the one whose stationarity
        # residual vanishes at a KKT point
        with pytest.raises(SystemExit) as exc:
            main(["trust-region", "--random", "3", "--lambda-sign", "1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("text", ["1", "a:b", "1:0", "0:0", "1:2:3"])
    def test_bad_init_range_is_an_input_error(self, matrix_file, text,
                                              capsys):
        assert main(eigen_args(matrix_file, f"--init-range={text}")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: expected LO:HI" in captured.err \
            or "input error: need LO < HI" in captured.err

    @pytest.mark.parametrize("text", ["1:2", "a:b:c", "1:2:0", "1:2:-1",
                                      "2:1:1"])
    def test_bad_delta_sweep_is_an_input_error(self, text, capsys):
        assert main(["trust-region", "--random", "3",
                     f"--delta-sweep={text}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: expected LO:HI:STEP" in captured.err \
            or "input error: need LO <= HI and STEP > 0" in captured.err


class TestEigenCommand:
    def test_json_output(self, matrix_file, capsys):
        assert main(eigen_args(matrix_file, "--format", "json")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 8
        assert doc["accepted"] >= 1
        assert doc["pairs"][0]["lambda"] == pytest.approx(-2.0, abs=1e-5)

    def test_table_output(self, matrix_file, capsys):
        assert main(eigen_args(matrix_file)) == 0
        out = capsys.readouterr().out
        assert "lambda" in out
        assert "trials=8" in out

    def test_csv_deterministic(self, matrix_file, capsys):
        assert main(eigen_args(matrix_file, "--format", "csv")) == 0
        first = capsys.readouterr().out
        assert main(eigen_args(matrix_file, "--format", "csv")) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("occ_pct,lambda,residual")

    def test_env_seed_matches_flag(self, matrix_file, capsys, monkeypatch):
        base = ["eigen", matrix_file, "--kind", "z", "--trials", "6",
                "--eps", "1e-12", "--tol", "1e-6", "--format", "csv"]
        assert main(base + ["--seed", "7"]) == 0
        explicit = capsys.readouterr().out
        monkeypatch.setenv("SPECTEIG_SEED", "7")
        assert main(base) == 0
        via_env = capsys.readouterr().out
        assert via_env == explicit
        # an explicit flag beats the environment
        monkeypatch.setenv("SPECTEIG_SEED", "1234")
        assert main(base + ["--seed", "7"]) == 0
        assert capsys.readouterr().out == explicit

    def test_env_seed_must_be_integer(self, matrix_file, monkeypatch,
                                      capsys):
        monkeypatch.setenv("SPECTEIG_SEED", "not-a-number")
        assert main(["eigen", matrix_file, "--kind", "z"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eigen", str(tmp_path / "nope.tns"),
                     "--kind", "z"]) == 1

    def test_z_kind_rejects_denominator_file(self, matrix_file, tmp_path,
                                             capsys):
        b = tmp_path / "b.tns"
        b.write_text(IDENTITY_TNS)
        assert main(["eigen", matrix_file, "--kind", "z",
                     "--b", str(b)]) == 1

    def test_indefinite_denominator_exit_code(self, tmp_path, capsys):
        a = tmp_path / "a.tns"
        a.write_text(IDENTITY_TNS)
        b = tmp_path / "b.tns"
        b.write_text(INDEFINITE_TNS)
        assert main(["eigen", str(a), "--kind", "d", "--b", str(b)]) == 3
        assert "denominator" in capsys.readouterr().err

    def test_unreachable_tolerance_exit_code(self, matrix_file, capsys):
        assert main(["eigen", matrix_file, "--kind", "z", "--trials", "4",
                     "--tol", "1e-14", "--k-max", "3", "--seed", "2"]) == 2

    def test_bad_alpha_text(self, matrix_file, capsys):
        assert main(eigen_args(matrix_file, "--alpha", "xyz")) == 1

    def test_bad_init_range(self, matrix_file, capsys):
        assert main(eigen_args(matrix_file, "--init-range", "1:0")) == 1

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-4"])
    def test_bad_cluster_tol_is_an_input_error(self, matrix_file, tol,
                                               capsys):
        assert main(eigen_args(matrix_file, f"--cluster-tol={tol}",
                               "--format", "csv")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cluster_tol must be positive" in captured.err

    def test_history_sink(self, matrix_file, tmp_path, capsys):
        sink = tmp_path / "trace.csv"
        assert main(eigen_args(matrix_file, "--history", str(sink))) == 0
        lines = sink.read_text().splitlines()
        assert lines[0] == "k,theta,F_theta"
        assert len(lines) >= 2

    def test_history_is_trial_zero_of_the_run(self, data_dir, tmp_path,
                                              monkeypatch, capsys):
        # the sink gets trial 0's trace from the multistart, which runs one
        # fractional program per trial and no extra solve for the sink
        from specteig import dinkelbach, eigen
        args = [str(data_dir / "example3.tns"), "--kind", "h", "--gamma",
                "3", "--alpha", "3", "--init-range", "0:1", "--trials", "4",
                "--seed", "5", "--format", "csv"]
        assert main(["eigen", *args]) == 0
        plain = capsys.readouterr().out
        steps, programs = dinkelbach.dinkelbach_steps, []

        def counted(*a, **k):
            programs.append(a)
            return steps(*a, **k)

        for module in (dinkelbach, eigen):
            monkeypatch.setattr(module, "dinkelbach_steps", counted)
        sink = tmp_path / "trace.csv"
        assert main(["eigen", *args, "--history", str(sink)]) == 0
        assert len(programs) == 4
        assert capsys.readouterr().out == plain
        monkeypatch.undo()
        a = specteig.load_tensor(data_dir / "example3.tns")
        config = specteig.DinkelbachConfig(inner=specteig.PamConfig(
            gammas=(3.0,) * 6, alpha=3.0, seed=5,
            init=specteig.Uniform(0.0, 1.0)))
        alone = tmp_path / "alone.csv"
        specteig.write_trace_csv(specteig.dinkelbach_solve(
            specteig.build_problem(a, "h").fractional, config).trace, alone)
        assert sink.read_bytes() == alone.read_bytes()


class TestExamplesCommand:
    def test_small_replication_with_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "run.json"
        code = main(["examples", "5.1", "--trials", "5", "--seed", "11",
                     "--format", "json", "--sidecar", str(sidecar)])
        assert code == 0
        doc = json.loads(sidecar.read_text())
        assert doc["example"] == "5.1"
        assert doc["kind"] == "Z"
        assert doc["params"]["trials"] == 5
        assert doc["params"]["seed"] == 11
        assert doc["report"]["accepted"] >= 1
        stdout_doc = json.loads(capsys.readouterr().out)
        assert stdout_doc == doc["report"]

    def test_default_sidecar_name(self, tmp_path, capsys):
        code = main(["examples", "5.1", "--trials", "3", "--seed", "4"])
        assert code == 0
        assert (tmp_path / "examples_5.1.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_an_input_error(self, tmp_path, jobs, capsys):
        # no report on stdout and no sidecar: nothing ran
        assert main(["examples", "5.1", "--jobs", jobs, "--format",
                     "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "jobs must be an integer >= 1" in captured.err
        assert not (tmp_path / "examples_5.1.json").exists()

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        # NumPy's seeding used to end the run in a ValueError traceback
        assert main(["examples", "5.1", "--seed", "-1", "--format",
                     "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: seed must be an integer >= 0" in captured.err
        assert not (tmp_path / "examples_5.1.json").exists()

    def test_sidecar_needs_single_example(self, capsys):
        assert main(["examples", "all", "--sidecar", "x.json"]) == 1


class TestTrustRegionCommand:
    def test_negative_seed_is_an_input_error(self, capsys):
        assert main(["trust-region", "--random", "4", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: seed must be an integer >= 0" in captured.err

    def test_random_instance_csv(self, capsys):
        code = main(["trust-region", "--random", "4", "--seed", "5",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,iters,lambda,value,grad_norm,proj_PD,time_s"
        cells = lines[1].split(",")
        assert cells[0] == "4"
        assert int(cells[5]) == 1
        assert float(cells[4]) <= 1e-5

    def test_poly_file_linear_oracle(self, tmp_path, capsys):
        doc = {"n": 3, "p": 3,
               "terms": [{"alpha": [1, 0, 0], "coeff": 1.0}]}
        path = tmp_path / "lin.json"
        path.write_text(json.dumps(doc))
        code = main(["trust-region", str(path), "--delta", "2",
                     "--format", "csv"])
        assert code == 0
        cells = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(cells[2]) == pytest.approx(0.5, abs=1e-6)
        assert float(cells[3]) == pytest.approx(-2.0, abs=1e-6)

    def test_exactly_one_source_required(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        poly.write_text("{}")
        assert main(["trust-region"]) == 1
        assert main(["trust-region", str(poly), "--random", "3"]) == 1

    def test_delta_validated(self, capsys):
        assert main(["trust-region", "--random", "3", "--delta", "0"]) == 1

    def test_bad_scales(self, capsys):
        assert main(["trust-region", "--random", "3",
                     "--scales", "1,2"]) == 1
        assert main(["trust-region", "--random", "3",
                     "--scales", "a,b,c"]) == 1

    def test_delta_sweep_rows(self, capsys):
        code = main(["trust-region", "--random", "3", "--seed", "8",
                     "--delta-sweep", "1:3:1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("delta,")
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]

    def test_json_omits_timing(self, capsys):
        code = main(["trust-region", "--random", "3", "--seed", "8",
                     "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert "time_s" not in rows[0]
        assert rows[0]["proj_PD"] == 1

    def test_history_sink(self, tmp_path, capsys):
        sink = tmp_path / "inner.csv"
        code = main(["trust-region", "--random", "3", "--seed", "8",
                     "--history", str(sink)])
        assert code == 0
        lines = sink.read_text().splitlines()
        assert lines[0] == "iter,value"
        assert len(lines) >= 2

    def test_unreachable_boundary_exit_code(self, capsys):
        # no stationarity residual in floating point reaches 1e-300 here
        assert main(["trust-region", "--random", "3", "--seed", "8",
                     "--tol", "1e-300", "--max-outer", "5"]) == 2


def _record_with(monkeypatch, tmp_path, move):
    """Point verify at a copy of the package data in which move has edited
    the first pair of study 5.1's record."""
    data = shutil.copytree(Path(specteig.__file__).parent / "data",
                           tmp_path / "package-data")
    path = data / "examples_5.1.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    move(doc["report"]["pairs"][0])
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    monkeypatch.setattr(cli, "_DATA", data)


class TestVerifyCommand:
    def test_studies_match_their_records(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for tag in ("5.1", "5.2", "5.3"):
            assert f"PASS example {tag}: bit-identical" in out
        assert "OK: 0 of 3 studies failing" in out

    def test_env_seed_is_ignored(self, monkeypatch, capsys):
        # the records are at seed 1729, whatever the environment asks for
        monkeypatch.setenv("SPECTEIG_SEED", "5")
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.count("bit-identical") == 3

    def test_seed_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "5"])
        assert exc.value.code == 1

    def test_tampered_data_fails(self, data_dir, tmp_path, capsys):
        data = shutil.copytree(data_dir, tmp_path / "data")
        (data / "example2.tns").write_text("order 4\ndim 3\n1 1 1 1 1.0\n")
        assert main(["verify", "--data", str(data)]) == 4
        out = capsys.readouterr().out
        assert "FAIL example 5.1: " in out
        assert "PASS example 5.2: bit-identical" in out
        assert "PASS example 5.3: bit-identical" in out
        assert "FAILED: 1 of 3 studies failing" in out

    def test_missing_data_dir_fails(self, tmp_path, capsys):
        assert main(["verify", "--data", str(tmp_path / "absent")]) == 4
        out = capsys.readouterr().out
        assert out.count("FileNotFoundError") == 3

    def test_one_ulp_passes_with_its_gap(self, monkeypatch, tmp_path,
                                         capsys):
        def move(pair):
            pair["lambda"] = math.nextafter(pair["lambda"], math.inf)

        _record_with(monkeypatch, tmp_path, move)
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS example 5.1: within 1e-09, largest relative gap " \
               "2.0e-16 at $.report.pairs[0].lambda" in out
        assert out.count("bit-identical") == 2

    @pytest.mark.parametrize("field, edit, detail", [
        ("lambda", lambda v: v * (1.0 + 1e-8),
         "relative gap 1.0e-08 at $.report.pairs[0].lambda, beyond 1e-09"),
        ("trials_hit", lambda v: v + 1,
         "$.report.pairs[0].trials_hit differs from the record")],
        ids=["lambda", "trials_hit"])
    def test_a_moved_value_fails_and_is_named(self, monkeypatch, tmp_path,
                                              capsys, field, edit, detail):
        def move(pair):
            pair[field] = edit(pair[field])

        _record_with(monkeypatch, tmp_path, move)
        assert main(["verify"]) == 4
        out = capsys.readouterr().out
        assert f"FAIL example 5.1: {detail}\n" in out
        assert "FAILED: 1 of 3 studies failing" in out


def _module_env():
    """Environment whose PYTHONPATH finds this package from any directory."""
    src = str(Path(specteig.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


class TestModuleEntry:
    def test_import_loads_no_scipy(self):
        # the package runs on NumPy alone; only the tests need SciPy
        code = ("import sys, specteig, specteig.cli; "
                "print('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=_module_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_help_via_module(self):
        proc = subprocess.run([sys.executable, "-m", "specteig", "--help"],
                              capture_output=True, text=True,
                              env=_module_env())
        assert proc.returncode == 0
        assert "specteig" in proc.stdout

    def test_usage_error_via_module(self):
        proc = subprocess.run([sys.executable, "-m", "specteig"],
                              capture_output=True, text=True,
                              env=_module_env())
        assert proc.returncode == 1
        assert "usage" in proc.stderr
