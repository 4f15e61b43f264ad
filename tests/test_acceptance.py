"""End-to-end acceptance checks, one test per shipped criterion.

Each test gathers every clause of its criterion, records a single
CRITERION n: PASS/FAIL line through the shared log, and fails with the
collected clause details if anything missed. Tolerances are pinned here on
purpose; loosening them is a release decision, not a test fix.

Criteria 3 and 4 pin the spectra of the bundled files themselves: the
values of the eigenvalue ratio at its local minimizers and its global
minimum, to four decimals. Each test also recomputes them independently of
the package (Newton's method on the eigen-equations with a tangent-Hessian
classification, and BFGS on the ratio; see `conftest.ratio_local_minima`
and `conftest.ratio_global_minimum`) and checks the pins against them.
The third-party clusters the criteria first pinned are not eigenvalues of
these files; the class docstrings keep them as provenance, with what is
known of where they come from.

Criterion 6 pins the concavity of the shifted form at the shift that
provably gives it: on the unit sphere the Hessian of A x^m - alpha |x|^m is
at most m((m - 1)|A|_F - alpha) I, so alpha = (m - 1)|A|_F is enough (the
bound Kolda and Mayo use for the shifted power method). At the plain
Frobenius norm, the solver's default shift, the clause is false: sample 29
of the clause has a Hessian eigenvalue of 0.936 there.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from specteig import (BoundaryConfig, DinkelbachConfig, FractionalProblem,
                      Given, PamConfig, SymTensor, TaylorPoly, Uniform,
                      ZIdentity, axpy, build_problem, check_second_order,
                      dinkelbach_solve, kl_exponent, pam_solve,
                      random_cubic, solve_boundary, solve_multistart)
from specteig.eigen import _occurrence_pct

from conftest import (dense_partial, random_symtensor, ratio_global_minimum,
                      ratio_local_minima, to_dense)


def finish(log, num, checks):
    """Record the criterion line and fail the test on any missed clause."""
    ok = all(good for good, _ in checks)
    detail = "; ".join(text for _, text in checks)
    log(num, ok, detail)
    if not ok:
        missed = [text for good, text in checks if not good]
        pytest.fail(f"criterion {num} missed {len(missed)} clause(s): "
                    + "; ".join(missed), pytrace=False)


def clause(checks, good, text):
    checks.append((bool(good), f"{'ok' if good else 'MISS'} {text}"))


def eigen_config(order, gamma, alpha, init_lo, init_hi,
                 tol=1e-3, eps=1e-6):
    inner = PamConfig(gammas=(gamma,) * order, alpha=alpha, eps=eps,
                      init=Uniform(init_lo, init_hi))
    return DinkelbachConfig(inner=inner, tol=tol)


def match_known(pairs, known, tol):
    """Map each known value to the matching cluster (or None)."""
    found = {}
    for v in known:
        best = None
        for p in pairs:
            if abs(p.lambda_ - v) <= tol:
                best = p
                break
        found[v] = best
    extras = [p.lambda_ for p in pairs
              if all(abs(p.lambda_ - v) > tol for v in known)]
    return found, extras


def cluster_summary(pairs, accepted):
    return ", ".join(
        f"{p.lambda_:.4f} ({_occurrence_pct(p.trials_hit, accepted):.0f}%)"
        for p in pairs)


def mean_outer(report):
    if report.accepted == 0:
        return math.nan
    total = sum(p.mean_outer_iters * p.trials_hit for p in report.pairs)
    return total / report.accepted


def reference_clause(checks, problem, local_minima, global_minimum):
    """Check pinned reference values against an independent computation
    on the dense arrays of the loaded operators."""
    a_arr, b_arr = to_dense(problem.a), to_dense(problem.b)
    mins = ratio_local_minima(a_arr, b_arr)
    low = ratio_global_minimum(a_arr, b_arr)
    good = (len(mins) == len(local_minima)
            and all(abs(u - v) <= 1e-4 for u, v in zip(mins, local_minima))
            and abs(low - global_minimum) <= 1e-4)
    clause(checks, good,
           f"independent local minima {[round(v, 4) for v in mins]} and "
           f"global minimum {low:.6f} equal the pinned {local_minima} and "
           f"{global_minimum} within 1e-4")


def final_step_clause(checks, problem, config, trials, base_seed=1729):
    """Dinkelbach's superlinear last step, |F(theta_K)| <= 0.1
    |F(theta_(K-1))|, on every converged multistart trial with at least two
    trace rows; trial t is rerun at seed base_seed ^ t."""
    frac = FractionalProblem(problem.a, problem.b)
    ratios = []
    for t in range(trials):
        cfg = replace(config, inner=replace(config.inner,
                                            seed=base_seed ^ t))
        res = dinkelbach_solve(frac, cfg)
        fs = [f for _, _, f in res.trace]
        if res.converged and len(fs) >= 2:
            ratios.append(abs(fs[-1]) / abs(fs[-2]))
    worst = max(ratios, default=math.inf)
    clause(checks, worst <= 0.1,
           f"final step |F_K| <= 0.1 |F_K-1| on {len(ratios)} converged "
           f"trials (worst ratio {worst:.3g})")


class TestFourthOrderUnitSphere:
    KNOWN = (-1.0954, -0.5629, -0.0451)
    VECTOR = np.array([0.5916, -0.7461, -0.3045])

    def test_c1_default_shift_multistart(self, example2, criterion_log):
        t0 = time.perf_counter()
        problem = build_problem(example2, "Z")
        config = eigen_config(4, 1.0, None, -1.0, 1.0)
        report = solve_multistart(problem, trials=100, base_seed=1729,
                                  config=config)
        elapsed = time.perf_counter() - t0
        checks = []
        found, extras = match_known(report.pairs, self.KNOWN, 5e-4)
        clause(checks, all(found[v] is not None for v in self.KNOWN)
               and not extras,
               f"clusters {{{cluster_summary(report.pairs, report.accepted)}}}"
               f" match {self.KNOWN} within 5e-4")
        clause(checks, report.accepted == report.trials
               and all(p.residual <= 1e-3 for p in report.pairs),
               f"all {report.trials} trials accepted with residual <= 1e-3 "
               f"({report.accepted} accepted)")
        low = found[self.KNOWN[0]]
        if low is not None:
            gap = min(float(np.max(np.abs(low.x - s * self.VECTOR)))
                      for s in (1.0, -1.0))
            clause(checks, gap <= 2e-3,
                   f"eigenvector at {self.KNOWN[0]} within 2e-3 "
                   f"(gap {gap:.2e})")
        else:
            clause(checks, False, "eigenvector cluster missing")
        outs = [p.mean_outer_iters for p in report.pairs]
        clause(checks, all(abs(o - 1.0) <= 1e-12 for o in outs),
               f"one parametric step on every converged trial "
               f"(means {[f'{o:.2f}' for o in outs]})")
        if low is not None:
            occ = _occurrence_pct(low.trials_hit, report.accepted)
            clause(checks, 25.0 <= occ <= 70.0,
                   f"global occurrence {occ:.1f}% in [25, 70]")
        else:
            clause(checks, False, "global cluster missing")
        clause(checks, elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s")
        finish(criterion_log, 1, checks)

    def test_c2_small_shift_prefers_global(self, example2, criterion_log):
        t0 = time.perf_counter()
        problem = build_problem(example2, "Z")
        config = eigen_config(4, 1.0, 0.1, -1.0, 1.0)
        report = solve_multistart(problem, trials=100, base_seed=1729,
                                  config=config)
        elapsed = time.perf_counter() - t0
        checks = []
        low = next((p for p in report.pairs
                    if abs(p.lambda_ + 1.0952) <= 1e-3), None)
        if low is None:
            clause(checks, False, "global cluster near -1.0952 missing")
        else:
            occ = _occurrence_pct(low.trials_hit, report.accepted)
            clause(checks, occ >= 40.0,
                   f"global occurrence {occ:.1f}% >= 40% "
                   f"({low.trials_hit}/{report.accepted} accepted)")
        clause(checks, elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s")
        finish(criterion_log, 2, checks)


class TestSixthOrderDiagonal:
    """H-eigenvalues of the bundled order-6 tensor on R^4 (example3.tns).

    The criterion first pinned third-party clusters -3.7082, -2.0798 and
    -1.9568; they are kept here as provenance only. None of them lies
    within 1e-3 of any of the file's 34 real H-eigenvalues (the nearest are
    -3.7179 and -2.0437). The minimum of A x^6 / sum_i x_i^6 over the
    sphere is -10.7440, and the ratio has strict local minimizers at the
    five LOCAL_MINIMA values.
    """

    LOCAL_MINIMA = (-10.7440, -8.3200, -4.1781, -3.7179, -2.9314)
    GLOBAL_MINIMUM = -10.7440

    def test_c3_componentwise_normalizer_multistart(self, example3,
                                                    criterion_log):
        t0 = time.perf_counter()
        problem = build_problem(example3, "H")
        config = eigen_config(6, 3.0, 3.0, 0.0, 1.0)
        report = solve_multistart(problem, trials=100, base_seed=1729,
                                  config=config)
        elapsed = time.perf_counter() - t0
        checks = []
        reference_clause(checks, problem, self.LOCAL_MINIMA,
                         self.GLOBAL_MINIMUM)
        _, extras = match_known(report.pairs, self.LOCAL_MINIMA, 1e-3)
        clause(checks, report.pairs and not extras,
               f"clusters {{{cluster_summary(report.pairs, report.accepted)}}}"
               f" each within 1e-3 of a local minimum {self.LOCAL_MINIMA}")
        low = report.pairs[0].lambda_ if report.pairs else math.nan
        clause(checks, abs(low - self.GLOBAL_MINIMUM) <= 1e-3,
               f"smallest cluster {low:.4f} is the global minimum "
               f"{self.GLOBAL_MINIMUM} within 1e-3")
        clause(checks, all(p.residual <= 1e-3 for p in report.pairs),
               f"cluster residuals <= 1e-3 "
               f"({report.accepted}/{report.trials} trials accepted)")
        mo = mean_outer(report)
        clause(checks, mo <= 7.0, f"mean parametric steps {mo:.2f} <= 7")
        final_step_clause(checks, problem, config, report.trials)
        clause(checks, elapsed < 600.0, f"runtime {elapsed:.1f}s < 600s")
        finish(criterion_log, 3, checks)


class TestGeneralizedFourthOrder:
    """Eigenvalues of the bundled order-4 pencil on R^3 (example4_A.tns
    over example4_B.tns).

    The criterion first pinned third-party clusters -0.2268, -0.1241 and
    -0.0426. They are the negative spectrum, and the local minima, of a
    pencil that differs from the bundled one in a single entry:
    a_2223 = -0.1541 instead of the file's -0.6162, which is four times
    that value (4 is the multiplicity of the index class {2,2,2,3}). Which
    of the two the source example means cannot be settled from this
    repository; the bundled file is what the CLI, the README and the
    benchmark use, so KNOWN holds its own local minima, -0.3313 being the
    global one.
    """

    KNOWN = (-0.3313, -0.1242, -0.0074)

    def test_c4_dense_pencil_multistart(self, example4, criterion_log):
        t0 = time.perf_counter()
        a, b = example4
        problem = build_problem(a, "D", b=b)
        config = eigen_config(4, 1.0, 10.0, -1.0, 1.0)
        report = solve_multistart(problem, trials=80, base_seed=1729,
                                  config=config)
        elapsed = time.perf_counter() - t0
        checks = []
        reference_clause(checks, problem, self.KNOWN, self.KNOWN[0])
        found, extras = match_known(report.pairs, self.KNOWN, 1e-3)
        clause(checks, all(found[v] is not None for v in self.KNOWN)
               and not extras,
               f"clusters {{{cluster_summary(report.pairs, report.accepted)}}}"
               f" match {self.KNOWN} within 1e-3")
        clause(checks, all(p.residual <= 1e-3 for p in report.pairs),
               f"cluster residuals <= 1e-3 "
               f"({report.accepted}/{report.trials} trials accepted)")
        mo = mean_outer(report)
        clause(checks, mo <= 6.0, f"mean parametric steps {mo:.2f} <= 6")
        final_step_clause(checks, problem, config, report.trials)
        clause(checks, elapsed < 120.0, f"runtime {elapsed:.1f}s < 120s")
        finish(criterion_log, 4, checks)


class TestHomogeneousVersusMultilinear:
    A1 = SymTensor.from_entries(2, 2, [((1, 1), 1.0), ((2, 2), -2.0)])
    A2 = SymTensor.from_entries(2, 2, [((1, 1), 2.0), ((2, 2), 4.0)])

    @staticmethod
    def _dense_matrix(t):
        return np.array([[t.entry(1, 1), t.entry(1, 2)],
                         [t.entry(1, 2), t.entry(2, 2)]])

    def _pam_homogeneous_min(self, a):
        alpha = a.frobenius_norm()
        best = math.inf
        for seed in (0, 1, 2):
            res = pam_solve(a, PamConfig(gammas=(1.0, 1.0), alpha=alpha,
                                         eps=1e-12, seed=seed))
            best = min(best, res.value + alpha)
        return best

    def _pam_multilinear_min(self, a):
        best = math.inf
        for seed in (0, 1, 2):
            res = pam_solve(a, PamConfig(gammas=(1.0, 1.0), alpha=0.0,
                                         eps=1e-12, seed=seed))
            best = min(best, a.multilinear_apply(list(res.blocks)))
        return best

    def test_c5_diagonal_pair_battery(self, criterion_log):
        checks = []
        for a, name, hom_want, multi_want in (
                (self.A1, "first", -2.0, -2.0),
                (self.A2, "second", 2.0, -4.0)):
            hom_analytic = float(np.linalg.eigvalsh(
                self._dense_matrix(a))[0])
            clause(checks, abs(hom_analytic - hom_want) <= 1e-8,
                   f"{name} form sphere minimum {hom_analytic:.6f} "
                   f"= {hom_want:g} (spectral)")
            hom_pam = self._pam_homogeneous_min(a)
            clause(checks, abs(hom_pam - hom_want) <= 1e-8,
                   f"{name} form sphere minimum {hom_pam:.6f} "
                   f"= {hom_want:g} (block solver)")
            multi = self._pam_multilinear_min(a)
            clause(checks, abs(multi - multi_want) <= 1e-6,
                   f"{name} form split-block minimum {multi:.6f} "
                   f"= {multi_want:g}")
        finish(criterion_log, 5, checks)


class TestPropertySuite:
    def test_c6_descent_concavity_and_identities(self, example2,
                                                 criterion_log):
        checks = []

        # (a) per-sweep sufficient decrease with the smallest proximal
        # weight, from a known start so the first row is covered too
        worst_descent = -math.inf
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            m = (2, 4)[i % 2]
            n = 2 + i % 2
            a = random_symtensor(m, n, rng)
            gammas = tuple(float(g) for g in rng.uniform(0.5, 2.0, size=m))
            alpha = a.frobenius_norm() if i % 3 else 0.0
            start = []
            for _ in range(m):
                v = rng.standard_normal(n)
                start.append(v / np.linalg.norm(v))
            config = PamConfig(gammas=gammas, alpha=alpha, eps=1e-9,
                               max_iter=300, init=Given(tuple(start)))
            res = pam_solve(a, config)
            gbar = min(gammas)
            h_prev = axpy(a, ZIdentity(m, n), alpha).multilinear_apply(start)
            for _, h_t, _, step in res.history:
                worst_descent = max(worst_descent,
                                    h_t + 0.5 * gbar * step ** 2 - h_prev)
                h_prev = h_t
        clause(checks, worst_descent <= 1e-10,
               f"sweep descent slack {worst_descent:.2e} <= 1e-10 "
               f"over 50 instances")

        # (b) shifted-form Hessian is negative semidefinite on the sphere
        # at (m - 1) times the Frobenius norm, where
        # m(m-1) A x^(m-2) <= m(m-1) |A|_F I bounds the data term; taken
        # from the package's surrogate A - alpha E and checked against the
        # closed form m(m-1) A x^(m-2) - alpha m (I + (m-2) x x^T)
        worst_eig = -math.inf
        worst_gap = 0.0
        violations = 0
        for i in range(50):
            rng = np.random.default_rng(2000 + i)
            m = (2, 4)[i % 2]
            n = (2, 3)[(i // 2) % 2]
            a = random_symtensor(m, n, rng)
            arr = to_dense(a)
            alpha = (m - 1) * float(np.sqrt((arr ** 2).sum()))
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            surrogate = axpy(a, ZIdentity(m, n), alpha)
            hess = m * (m - 1) * dense_partial(surrogate.dense,
                                               [x] * (m - 2))
            mat = arr
            for _ in range(m - 2):
                mat = np.tensordot(mat, x, axes=([mat.ndim - 1], [0]))
            formula = m * (m - 1) * mat - alpha * m * np.eye(n)
            if m > 2:
                formula = formula - alpha * m * (m - 2) * np.outer(x, x)
            worst_gap = max(worst_gap, float(np.max(np.abs(hess - formula))))
            top = float(np.linalg.eigvalsh(hess)[-1])
            worst_eig = max(worst_eig, top)
            if top > 1e-8:
                violations += 1
        clause(checks, violations == 0 and worst_gap <= 1e-10,
               f"shifted-Hessian NSD at (m-1)|A|_F on 50 sphere samples "
               f"({violations} violations, max eigenvalue {worst_eig:.2e}, "
               f"bound 1e-8; closed-form gap {worst_gap:.1e} <= 1e-10)")

        # (c) parametric traces are monotone on every multistart trial of
        # the bundled fourth-order example
        frac = FractionalProblem(example2, ZIdentity(4, 3))
        base = eigen_config(4, 1.0, None, -1.0, 1.0)
        trace_ok = True
        bad_seed = None
        for t in range(100):
            cfg = replace(base, inner=replace(base.inner, seed=1729 ^ t))
            res = dinkelbach_solve(frac, cfg)
            thetas = [th for _, th, _ in res.trace]
            fs = [f for _, _, f in res.trace]
            good = (all(b <= a_ + 1e-9 for a_, b in zip(thetas, thetas[1:]))
                    and all(a_ <= b + 1e-9 for a_, b in zip(fs, fs[1:]))
                    and all(f <= 1e-3 + 1e-9 for f in fs))
            if not good:
                trace_ok = False
                bad_seed = 1729 ^ t
                break
        clause(checks, trace_ok,
               "parametric traces monotone on 100 trials"
               + ("" if trace_ok else f" (seed {bad_seed} broke)"))

        # (d) lifting a polynomial and evaluating the symmetric form at
        # (1, s) reproduces the polynomial
        worst_lift = 0.0
        for i in range(100):
            rng = np.random.default_rng(3000 + i)
            p = 2 + i % 3
            n = 2 + i % 7
            coeffs = {}
            for k in range(p + 1):
                for combo in itertools.combinations_with_replacement(
                        range(n), k):
                    alpha_idx = [0] * n
                    for j in combo:
                        alpha_idx[j] += 1
                    coeffs[tuple(alpha_idx)] = float(rng.uniform(-1, 1))
            tensor = TaylorPoly(n, p, coeffs).lifted
            for _ in range(3):
                s = rng.standard_normal(n)
                lhs = tensor.apply_full(np.concatenate(([1.0], s)))
                # the model stores only the lift; sum the input terms
                rhs = sum(c * np.prod(s ** np.array(alpha))
                          for alpha, c in coeffs.items())
                worst_lift = max(worst_lift,
                                 abs(lhs - rhs) / max(1.0, abs(rhs)))
        clause(checks, worst_lift <= 1e-10,
               f"lifting identity relative gap {worst_lift:.2e} <= 1e-10 "
               f"over 100 cases")

        # (e) scaled gradients agree with central differences
        worst_fd = 0.0
        for i in range(20):
            rng = np.random.default_rng(4000 + i)
            m = 2 + i % 3
            n = 2 + i % 4
            a = random_symtensor(m, n, rng)
            x = rng.standard_normal(n)
            grad = m * a.apply_gradient(x)
            fd = np.zeros(n)
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1e-6
                fd[j] = (a.apply_full(x + e) - a.apply_full(x - e)) / 2e-6
            worst_fd = max(worst_fd, float(np.linalg.norm(grad - fd))
                           / max(1.0, float(np.linalg.norm(grad))))
        clause(checks, worst_fd <= 1e-5,
               f"gradient finite-difference gap {worst_fd:.2e} <= 1e-5")

        finish(criterion_log, 6, checks)


class TestBoundaryStepBattery:
    INSTANCES = ([(1000, n) for n in range(2, 11)]
                 + [(1002, n) for n in range(2, 11)]
                 + [(1003, 2), (1003, 3)])

    @staticmethod
    def _boundary_min(poly, delta, n_samples, rng):
        best = math.inf
        remaining = n_samples
        while remaining > 0:
            batch = min(20000, remaining)
            dirs = rng.standard_normal((batch, poly.n))
            dirs *= delta / np.linalg.norm(dirs, axis=1, keepdims=True)
            best = min(best, float(poly.evaluate_many(dirs).min()))
            remaining -= batch
        return best

    def test_c7_cubic_models_on_the_sphere(self, criterion_log):
        t0 = time.perf_counter()
        checks = []
        bad = []
        sampled_ok = True
        sampled_text = []
        for seed, n in self.INSTANCES:
            poly = random_cubic(n, seed)
            res = solve_boundary(poly, 2.0)
            min_eig, pd = check_second_order(poly, res.s, res.lambda_)
            mono = all(b <= a + 1e-9 * max(1.0, abs(a))
                       for a, b in zip(res.history, res.history[1:]))
            good = (res.converged and res.grad_lagrangian_norm <= 1e-5
                    and pd and mono and res.lambda_ > 0.0)
            if not good:
                bad.append((seed, n, res.converged,
                            res.grad_lagrangian_norm, pd, mono,
                            res.lambda_))
            if n <= 4:
                rng = np.random.default_rng(seed * 1000 + n)
                floor = self._boundary_min(poly, 2.0, 100000, rng)
                if res.value > floor + 1e-2:
                    sampled_ok = False
                    sampled_text.append(
                        f"({seed},{n}): {res.value:.4f} vs {floor:.4f}")
        clause(checks, not bad,
               f"20/20 instances converged with certificates"
               + ("" if not bad else f" (failures: {bad})"))
        clause(checks, sampled_ok,
               "small instances within 1e-2 of 1e5-sample boundary minima"
               + ("" if sampled_ok else f" ({'; '.join(sampled_text)})"))

        sweep_poly = random_cubic(15, 42, scales=(200.0, 8.0, 2.0))
        lams = []
        sweep_conv = True
        for delta in range(1, 11):
            res = solve_boundary(sweep_poly, float(delta))
            sweep_conv &= res.converged
            lams.append(res.lambda_)
        lam_ok = (sweep_conv and all(l > 0 for l in lams)
                  and all(b <= a + 1e-9 for a, b in zip(lams, lams[1:])))
        clause(checks, lam_ok,
               f"radius sweep multipliers positive and nonincreasing "
               f"({lams[0]:.1f} down to {lams[-1]:.1f})")
        elapsed = time.perf_counter() - t0
        clause(checks, elapsed < 300.0, f"runtime {elapsed:.1f}s < 300s")
        finish(criterion_log, 7, checks)


class TestDecayExponents:
    def test_c8_pinned_and_bounded(self, criterion_log):
        checks = []
        tau, _ = kl_exponent(2, 2)
        clause(checks, tau == 1.0 / 54.0,
               f"exponent at (2, 2) is exactly 1/54 (got {tau!r})")
        grid_ok = all(kl_exponent(d, n)[0] < 0.5
                      for d in range(2, 9) for n in range(2, 9))
        clause(checks, grid_ok, "exponents below 1/2 on the whole grid")
        finish(criterion_log, 8, checks)
