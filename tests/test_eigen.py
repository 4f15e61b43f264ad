"""Eigenproblem assembly, clustering, and report rendering.

Matrix instances give exact spectral oracles for the multistart pipeline.
"""

import json
import logging
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specteig.eigen
import specteig.pam
from specteig import (ConfigError, DenominatorError, DinkelbachConfig,
                      DomainError, FractionalProblem,
                      GeneralizedEigenProblem, HDiagonal, NumericalError,
                      PamConfig,
                      SpecteigError, SymTensor, Uniform, ZIdentity, axpy,
                      build_problem, dinkelbach_solve, identity_tensor,
                      solve_multistart)
from specteig.cli import EXAMPLE_SPECS, _make_dinkelbach_config, _run_example
from specteig.dinkelbach import dinkelbach_steps
from specteig.pam import PamStats, run_lockstep
from specteig.eigen import (_occurrence_pct, format_table, rayleigh,
                            report_to_csv, report_to_json, residual)

from conftest import random_symtensor, reference_dinkelbach_solve


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


class TestKindMatchesDenominator:
    def test_z_requires_z_identity(self):
        GeneralizedEigenProblem(A1, ZIdentity(2, 2), "Z")
        for b in (HDiagonal(2, 2), identity_matrix_tensor(2)):
            with pytest.raises(ConfigError, match="kind Z requires"):
                GeneralizedEigenProblem(A1, b, "Z")

    def test_h_requires_h_diagonal(self):
        GeneralizedEigenProblem(A1, HDiagonal(2, 2), "H")
        for b in (ZIdentity(2, 2), identity_matrix_tensor(2)):
            with pytest.raises(ConfigError, match="kind H requires"):
                GeneralizedEigenProblem(A1, b, "H")

    def test_d_accepts_any_tensor(self):
        for b in (identity_matrix_tensor(2), ZIdentity(2, 2),
                  HDiagonal(2, 2)):
            assert GeneralizedEigenProblem(A1, b, "D").b is b

    @pytest.mark.parametrize("kind", ["Z", "H", "D"])
    def test_non_tensor_rejected(self, kind):
        for b in (None, np.eye(2), identity_matrix_tensor(2).dense):
            with pytest.raises(ConfigError, match=f"kind {kind} requires"):
                GeneralizedEigenProblem(A1, b, kind)
        with pytest.raises(ConfigError):
            build_problem(A1, kind, b=np.eye(2))


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

    @pytest.mark.parametrize("kind", ["D"])
    def test_dense_kinds_require_b(self, kind):
        with pytest.raises(ConfigError):
            build_problem(A1, kind)
        p = build_problem(A1, kind, b=identity_matrix_tensor(2))
        assert type(p.b) is SymTensor

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_problem(A1, "Q")
        with pytest.raises(ConfigError):
            build_problem(A1, "B", b=identity_matrix_tensor(2))

    def test_case_insensitive(self):
        assert build_problem(A1, "z").kind == "Z"
        assert build_problem(A1, "h").kind == "H"

    @pytest.mark.parametrize("kind", ["Z", "H", "D"])
    def test_non_tensor_numerator_rejected(self, kind):
        # the Z and H denominators used to be built from a.order first
        b = identity_matrix_tensor(2) if kind == "D" else None
        with pytest.raises(ConfigError, match="numerator must be a "
                                              "SymTensor, got ndarray"):
            build_problem(np.eye(2), kind, b=b)
        denominator = build_problem(A1, kind, b=b).b
        with pytest.raises(ConfigError, match="numerator"):
            GeneralizedEigenProblem(np.eye(2), denominator, kind)


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

    @pytest.mark.parametrize("call", [
        rayleigh, lambda p, x: residual(p, 1.5, x)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_raises_domain_error(self, call, bad):
        p = build_problem(matrix_tensor([3.0, 1.0, 2.0]), "Z")
        with pytest.raises(DomainError):
            call(p, [bad, 1.0, 0.0])


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

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, 2.0, None])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        # a count below 1 used to run no trials and return an empty report
        with pytest.raises(ConfigError, match="jobs must be an integer"):
            solve_multistart(build_problem(A1, "Z"), trials=4, base_seed=1,
                             config=small_config(), jobs=jobs)

    @pytest.mark.parametrize("seed", [-1, 2.5, math.nan, None])
    def test_base_seed_must_be_a_nonnegative_integer(self, seed):
        # it used to reach NumPy's seeding or XOR, which raised a bare
        # ValueError or TypeError
        with pytest.raises(ConfigError, match="base_seed must be an integer"):
            solve_multistart(build_problem(A1, "Z"), trials=4, base_seed=seed,
                             config=small_config())

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-4])
    def test_cluster_tol_must_be_positive(self, tol):
        # NaN compares False, so it used to split every cluster
        with pytest.raises(ConfigError, match="cluster_tol"):
            solve_multistart(build_problem(A1, "Z"), trials=4, base_seed=1,
                             config=small_config(), cluster_tol=tol)

    def test_numerical_error_is_a_rejected_trial(self, monkeypatch):
        # the failure is injected inside the pool: trial 2's first blocks
        # carry a NaN, so its first sweep yields a non-finite surrogate
        # value while the other trials share the pool's stacked calls
        chunks = []
        run_chunk = specteig.eigen._run_chunk

        def recording_run_chunk(*args):
            out = run_chunk(*args)
            chunks.append(out[0])
            return out

        monkeypatch.setattr(specteig.eigen, "_run_chunk", recording_run_chunk)
        p = build_problem(A1, "Z")
        clean = solve_multistart(p, trials=6, base_seed=9,
                                 config=small_config())
        assert clean.accepted == 6
        # the pool writes each subproblem's start into its block rows;
        # program 2 of the one chunk is trial 2
        seat = specteig.pam._Pool._seat

        def poisoned_seat(pool, slot, p, request):
            seat(pool, slot, p, request)
            if p == 2:
                pool.whole.blocks[slot, 0, 0] = np.nan

        monkeypatch.setattr(specteig.pam._Pool, "_seat", poisoned_seat)
        report = solve_multistart(p, trials=6, base_seed=9,
                                  config=small_config())
        assert report.trials == 6
        assert report.accepted == 5
        assert sum(q.trials_hit for q in report.pairs) == 5
        (clean_trials,), (hit_trials,) = chunks[:1], chunks[1:]
        assert not hit_trials[2].accepted
        assert hit_trials[2].inner_iters == 0
        for t in (0, 1, 3, 4, 5):
            a, b = clean_trials[t], hit_trials[t]
            assert (a.lambda_, a.residual, a.accepted, a.inner_iters,
                    a.outer_iters) == (b.lambda_, b.residual, b.accepted,
                                       b.inner_iters, b.outer_iters)
            assert np.array_equal(a.x, b.x)

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
        # one pool: its process_time elapsed is the last reading less the
        # first, which read 1.0
        assert ticks["cpu"] >= 2.0
        assert report.total_cpu_s == ticks["cpu"] - 1.0
        assert report.accepted == 4
        shares = sum(q.mean_cpu_s * q.trials_hit for q in report.pairs)
        assert shares == pytest.approx(report.total_cpu_s, rel=1e-12)
        assert f"total_cpu_s={report.total_cpu_s:.3f}" in \
            format_table(report)


class TestFractionalBuiltOnce:
    """A problem builds its fractional problem once: a second multistart
    call neither vets the kind-D denominator again nor changes the
    report. (TestDeterminism's jobs test pickles a problem that holds
    it.)"""

    def test_second_call_does_not_vet_again(self, example4, monkeypatch):
        # study 5.3's pencil and config, at four trials
        a, b = example4
        spec = EXAMPLE_SPECS["5.3"]
        config = _make_dinkelbach_config(4, 1e-3, 1e-6, spec["alpha"],
                                         spec["gamma"], spec["init"],
                                         10000, 50, 1729)
        vetted = []
        apply_full_many = SymTensor.apply_full_many

        def recording(self, xs):
            vetted.append(self)
            return apply_full_many(self, xs)

        monkeypatch.setattr(SymTensor, "apply_full_many", recording)
        problem = build_problem(a, "D", b=b)
        first = solve_multistart(problem, 4, 1729, config)
        assert [t for t in vetted if t is b] == [b]
        second = solve_multistart(problem, 4, 1729, config)
        assert [t for t in vetted if t is b] == [b]
        assert report_to_json(second) == report_to_json(first)
        assert problem.fractional is problem.fractional

    def test_max_problem_negates_the_numerator(self):
        problem = build_problem(A1, "Z", extremum="max")
        frac = problem.fractional
        assert np.array_equal(frac.numerator.dense, -A1.dense)
        assert frac.denominator is problem.b


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


def _caught(program):
    """A pool program that returns the error its solve raises."""
    try:
        return (yield from program)
    except SpecteigError as exc:
        return exc


def _random_problem(kind, m, n, rng):
    a = random_symtensor(m, n, rng)
    if kind != "D":
        return build_problem(a, kind)
    # |x|^m plus a perturbation of at most 0.1 on the unit sphere
    r = random_symtensor(m, n, rng)
    b = axpy(identity_tensor(m, n), r, -0.1 / r.frobenius_norm())
    return build_problem(a, kind, b=b)


class TestBundledStudies:
    """The bundled studies as `specteig examples` runs them, at seed 1729
    with their shipped trial counts. A change that keeps every answer
    keeps these numbers exactly."""

    #: accepted trials, then per cluster: lambda, trials hit, and the inner
    #: and outer iterations summed over the cluster's trials
    PINS = {
        "5.1": (100, [(-1.0953516978435447, 43, 481, 43),
                      (-0.5629171291384194, 25, 323, 25),
                      (-0.04509210814528164, 32, 576, 32)]),
        "5.2": (93, [(-10.744030528640888, 39, 5267, 144),
                     (-3.717942855312997, 54, 4759, 192)]),
        "5.3": (80, [(-0.3312821487628093, 33, 1437, 76),
                     (-0.12419410802730908, 20, 820, 45),
                     (-0.007410956427438616, 27, 911, 72)]),
    }

    @pytest.mark.parametrize("tag", sorted(PINS))
    def test_pinned(self, tag):
        _, _, report = _run_example(tag, None, 1729, 1)
        accepted, clusters = self.PINS[tag]
        assert report.trials == EXAMPLE_SPECS[tag]["trials"]
        assert report.accepted == accepted
        assert len(report.pairs) == len(clusters)
        for p, (lam, hits, inner, outer) in zip(report.pairs, clusters):
            assert p.trials_hit == hits
            assert p.mean_inner_iters == inner / hits
            assert p.mean_outer_iters == outer / hits
            assert p.lambda_ == pytest.approx(lam, abs=1e-9)


class TestLockstepEquivalence:
    """Trials run side by side in one pool against the serial loop kept in
    conftest, and reports across process counts and pool sizes."""

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["Z", "H", "D"]),
           m=st.sampled_from([2, 4, 6]), n=st.integers(1, 4),
           trials=st.integers(1, 9),
           shift=st.sampled_from([None, 0.5, 3.0]),
           seed=st.integers(0, 2 ** 20))
    def test_pool_matches_serial_loop(self, kind, m, n, trials, shift,
                                      seed):
        problem = _random_problem(kind, m, n, np.random.default_rng(seed))
        alpha = None if shift is None \
            else shift * problem.a.frobenius_norm()
        inner = PamConfig(gammas=(1.0,) * m, alpha=alpha, eps=1e-6,
                          max_iter=200, init=Uniform(-1.0, 1.0))
        config = DinkelbachConfig(inner=inner, tol=1e-3, k_max=20)
        frac = FractionalProblem(problem.a, problem.b)
        configs = [replace(config, inner=replace(inner, seed=seed ^ t))
                   for t in range(trials)]
        outcomes, sweeps = run_lockstep(
            [_caught(dinkelbach_steps(frac, c)) for c in configs],
            PamStats())
        for got, cfg, swept in zip(outcomes, configs, sweeps):
            try:
                want = reference_dinkelbach_solve(frac, cfg)
            except SpecteigError as exc:
                assert type(got) is type(exc)
                continue
            assert got.theta == want.theta
            assert np.array_equal(got.x, want.x)
            assert got.trace == want.trace
            assert (got.inner_iters, got.outer_iters, got.n_solves,
                    got.converged) == (want.inner_iters, want.outer_iters,
                                       want.n_solves, want.converged)
            assert swept == want.inner_iters
        reports = [report_to_json(solve_multistart(problem, trials, seed,
                                                   config, jobs=jobs))
                   for jobs in (1, 2)]
        # a pool of two slots: later trials wait for a free one
        with mock.patch.object(specteig.pam, "MAX_DENSE_ENTRIES",
                               2 * n ** m):
            reports.append(report_to_json(
                solve_multistart(problem, trials, seed, config)))
        assert reports[0] == reports[1] == reports[2]


class TestWarnings:
    """Each pool warning is logged at most once per solve call."""

    @staticmethod
    def _study_5_2(example3):
        inner = PamConfig(gammas=(3.0,) * 6, alpha=3.0, eps=1e-6,
                          init=Uniform(0.0, 1.0))
        return (build_problem(example3, "H"),
                DinkelbachConfig(inner=inner, tol=1e-3))

    @staticmethod
    def _records(caplog, text):
        return [r for r in caplog.records if text in r.getMessage()]

    def test_one_shift_warning_per_multistart(self, example3, caplog):
        problem, config = self._study_5_2(example3)
        with caplog.at_level(logging.WARNING, logger="specteig.pam"):
            solve_multistart(problem, 4, 1729, config)
        (record,) = self._records(caplog, "Frobenius")
        assert "subproblems" in record.getMessage()
        assert len(self._records(caplog, "multilinear value")) <= 1

    def test_one_shift_warning_per_fractional_solve(self, example3, caplog):
        problem, config = self._study_5_2(example3)
        frac = FractionalProblem(problem.a, problem.b)
        with caplog.at_level(logging.WARNING, logger="specteig.pam"):
            res = dinkelbach_solve(frac, config)
        assert res.n_solves > 1
        (record,) = self._records(caplog, "Frobenius")
        assert f"of {res.n_solves} subproblems" in record.getMessage()
        assert len(self._records(caplog, "multilinear value")) <= 1


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
