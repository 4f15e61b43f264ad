"""Eigenproblem assembly, clustering, and report rendering.

Matrix instances give exact spectral oracles for the multistart pipeline.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import specteig.eigen
from specteig import (ConfigError, DenominatorError, DenseB, DinkelbachConfig,
                      HDiagonal, NumericalError, PamConfig, SymTensor, Uniform,
                      ZIdentity, build_problem, solve_multistart)
from specteig.eigen import (_occurrence_pct, format_table, rayleigh,
                            report_to_csv, report_to_json, residual)


def matrix_tensor(diag):
    n = len(diag)
    return SymTensor.from_entries(
        2, n, [((i + 1, i + 1), float(v)) for i, v in enumerate(diag)])


def identity_matrix_tensor(n):
    return matrix_tensor([1.0] * n)


A1 = matrix_tensor([1.0, -2.0])


def small_config(**kw):
    # inner stall well below the acceptance tolerance so every trial's
    # eigenpair residual clears it
    inner = PamConfig(gammas=(1.0, 1.0), eps=kw.pop("eps", 1e-12),
                      init=Uniform(-1.0, 1.0))
    return DinkelbachConfig(inner=inner, tol=kw.pop("tol", 1e-6), **kw)


class TestBuildProblem:
    def test_z_fixes_denominator(self):
        p = build_problem(A1, "Z")
        assert isinstance(p.b, ZIdentity)
        with pytest.raises(ConfigError):
            build_problem(A1, "Z", b=identity_matrix_tensor(2))

    def test_h_fixes_denominator(self):
        p = build_problem(A1, "H")
        assert isinstance(p.b, HDiagonal)
        with pytest.raises(ConfigError):
            build_problem(A1, "H", b=identity_matrix_tensor(2))

    @pytest.mark.parametrize("kind", ["D", "B"])
    def test_dense_kinds_require_b(self, kind):
        with pytest.raises(ConfigError):
            build_problem(A1, kind)
        p = build_problem(A1, kind, b=identity_matrix_tensor(2))
        assert isinstance(p.b, DenseB)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_problem(A1, "Q")

    def test_case_insensitive(self):
        assert build_problem(A1, "z").kind == "Z"
        assert build_problem(A1, "h").kind == "H"


class TestRayleighResidual:
    def test_matrix_values(self):
        p = build_problem(matrix_tensor([3.0, 1.0]), "Z")
        e1 = np.array([1.0, 0.0])
        assert rayleigh(p, e1) == pytest.approx(3.0, rel=1e-14)
        assert rayleigh(p, 5.0 * e1) == pytest.approx(3.0, rel=1e-14)
        assert residual(p, 3.0, e1) == pytest.approx(0.0, abs=1e-14)
        assert residual(p, 2.0, e1) > 0.1

    def test_generalized_matrix_pencil(self):
        # A = diag(2, 6) against B = diag(1, 2): eigenvalues 2 and 3
        p = build_problem(matrix_tensor([2.0, 6.0]), "D",
                          b=matrix_tensor([1.0, 2.0]))
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert rayleigh(p, e1) == pytest.approx(2.0, rel=1e-14)
        assert rayleigh(p, e2) == pytest.approx(3.0, rel=1e-14)
        assert residual(p, 2.0, e1) == pytest.approx(0.0, abs=1e-14)
        assert residual(p, 3.0, e2) == pytest.approx(0.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        p = build_problem(A1, "Z")
        with pytest.raises(DenominatorError):
            rayleigh(p, np.zeros(2))


class TestMultistartMatrix:
    def test_finds_smallest_eigenvalue(self):
        p = build_problem(A1, "Z")
        report = solve_multistart(p, trials=20, base_seed=7,
                                  config=small_config())
        assert report.accepted == 20
        assert len(report.pairs) >= 1
        low = report.pairs[0]
        assert low.lambda_ == pytest.approx(-2.0, abs=1e-5)
        assert abs(low.x[1]) == pytest.approx(1.0, abs=1e-3)
        assert low.residual <= 1e-6

    def test_max_problem_reports_original_ratio(self):
        p = build_problem(A1, "Z", extremum="max")
        report = solve_multistart(p, trials=10, base_seed=3,
                                  config=small_config())
        assert report.accepted == 10
        assert report.pairs[-1].lambda_ == pytest.approx(1.0, abs=1e-5)

    def test_hits_partition_accepted(self):
        p = build_problem(A1, "Z")
        report = solve_multistart(p, trials=15, base_seed=11,
                                  config=small_config())
        assert sum(q.trials_hit for q in report.pairs) == report.accepted
        assert report.accepted <= report.trials

    def test_numerical_error_is_a_rejected_trial(self, monkeypatch):
        p = build_problem(A1, "Z")
        clean = solve_multistart(p, trials=6, base_seed=9,
                                 config=small_config())
        assert clean.accepted == 6
        solve = specteig.eigen.dinkelbach_solve

        def failing_solve(frac, cfg):
            if cfg.inner.seed == 9 ^ 2:
                raise NumericalError("injected failure")
            return solve(frac, cfg)

        monkeypatch.setattr(specteig.eigen, "dinkelbach_solve",
                            failing_solve)
        report = solve_multistart(p, trials=6, base_seed=9,
                                  config=small_config())
        assert report.trials == 6
        assert report.accepted == 5
        assert sum(q.trials_hit for q in report.pairs) == 5

    def test_trials_validated(self):
        p = build_problem(A1, "Z")
        with pytest.raises(ConfigError):
            solve_multistart(p, trials=0, base_seed=1,
                             config=small_config())


class TestTiming:
    def test_cpu_fields_read_process_time(self, monkeypatch):
        ticks = {"wall": 0.0, "cpu": 0.0}

        def wall():
            ticks["wall"] += 100.0
            return ticks["wall"]

        def cpu():
            ticks["cpu"] += 1.0
            return ticks["cpu"]

        monkeypatch.setattr(specteig.eigen, "time",
                            SimpleNamespace(perf_counter=wall,
                                            process_time=cpu))
        p = build_problem(A1, "Z")
        report = solve_multistart(p, trials=4, base_seed=5,
                                  config=small_config())
        assert report.total_cpu_s == 4.0
        assert all(q.mean_cpu_s == 1.0 for q in report.pairs)
        assert "total_cpu_s=4.000" in format_table(report)


class TestDeterminism:
    def test_same_seed_same_report(self):
        p = build_problem(A1, "Z")
        r1 = solve_multistart(p, trials=12, base_seed=21,
                              config=small_config())
        r2 = solve_multistart(p, trials=12, base_seed=21,
                              config=small_config())
        assert report_to_json(r1) == report_to_json(r2)
        assert report_to_csv(r1) == report_to_csv(r2)

    def test_jobs_do_not_change_result(self):
        p = build_problem(A1, "Z")
        serial = solve_multistart(p, trials=8, base_seed=33,
                                  config=small_config())
        parallel = solve_multistart(p, trials=8, base_seed=33,
                                    config=small_config(), jobs=2)
        assert report_to_json(serial) == report_to_json(parallel)


class TestBundledExample:
    def test_small_multistart_lands_on_known_values(self, example2):
        p = build_problem(example2, "Z")
        inner = PamConfig(gammas=(1.0,) * 4, alpha=None, eps=1e-6,
                          init=Uniform(-1.0, 1.0))
        report = solve_multistart(p, trials=10, base_seed=1729,
                                  config=DinkelbachConfig(inner=inner,
                                                          tol=1e-3))
        assert report.accepted == 10
        known = [-1.0954, -0.5629, -0.0451]
        for pair in report.pairs:
            assert min(abs(pair.lambda_ - v) for v in known) <= 5e-4
            assert pair.residual <= 1e-3


@pytest.fixture(scope="module")
def report():
    p = build_problem(matrix_tensor([1.0, -2.0, 0.5]), "Z")
    inner = PamConfig(gammas=(1.0, 1.0), eps=1e-12,
                      init=Uniform(-1.0, 1.0))
    return solve_multistart(p, trials=25, base_seed=5,
                            config=DinkelbachConfig(inner=inner, tol=1e-6))


class TestRendering:
    def test_occurrence_pct(self):
        assert _occurrence_pct(3, 12) == 25.0
        assert _occurrence_pct(0, 0) == 0.0

    def test_table_has_row_per_pair(self, report):
        text = format_table(report)
        lines = text.splitlines()
        assert "lambda" in lines[0]
        assert len(lines) == len(report.pairs) + 3
        assert f"trials={report.trials}" in lines[-1]

    def test_json_shape(self, report):
        doc = json.loads(report_to_json(report))
        assert doc["trials"] == report.trials
        assert doc["accepted"] == report.accepted
        assert len(doc["pairs"]) == len(report.pairs)
        occ = sum(q["occurrence_pct"] for q in doc["pairs"])
        assert occ == pytest.approx(100.0, abs=1e-6)
        assert "total_cpu_s" not in doc
        for q in doc["pairs"]:
            assert "mean_cpu_s" not in q

    def test_csv_shape(self, report):
        text = report_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0].startswith("occ_pct,lambda,residual")
        assert len(lines) == len(report.pairs) + 1
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(report.pairs[0].lambda_,
                                                rel=1e-9)

    def test_sign_canonical_vectors(self, report):
        for q in report.pairs:
            leading = next(c for c in q.x if abs(c) > 1e-8)
            assert leading > 0
