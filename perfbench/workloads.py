"""The benchmark's workloads, their inputs, checks and result fingerprints.

Every workload runs in rounds in a closed loop: one caller in one process
waits for each solve before it issues the next. Round r's inputs derive
from the run seed and r only, so the same seed gives the same inputs. A
run keeps issuing rounds until its time is up, but never stops before the
rounds that make up the result fingerprint.

Eigen workloads call ``solve_multistart(..., jobs=1)`` with
TRIALS_PER_CALL trials per call. The call of round r uses base seed
``base ^ (TRIALS_PER_CALL * r)``; because TRIALS_PER_CALL is a power of
two, its trials are ``base ^ t`` for t = 4r .. 4r+3. The fingerprint
rounds use base 1729 at every run seed, so they run exactly the trials of
the shipped studies; later rounds use a base of the run seed's own.
The boundary workload solves and certifies the cubic battery and radius
sweep of ``scripts/run_boundary_battery.py`` at that script's default
seeds in every round.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1729
TRIALS_PER_CALL = 4
TOL = 1e-3
EPS = 1e-6
CLUSTER_TOL = 1e-4
#: Tolerance ``specteig verify`` uses to match a known eigenvalue.
EXTREMAL_TOL = 1e-3
SETUP_REPEATS = 7


def stream_offset(seed: int) -> int:
    """Non-negative offset, zero at the default seed, that keeps the inputs
    of different run seeds apart (rounds use the low 20 bits)."""
    return ((seed - DEFAULT_SEED) << 20) % (1 << 62)


@dataclass
class Tally:
    """What one pass over a number of rounds did and how long it took."""

    attempted: int = 0
    errors: int = 0
    ok: int = 0
    hits: int = 0
    timed_s: float = 0.0
    raw_s: float = 0.0
    samples_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    error_text: list = field(default_factory=list)
    fingerprint_parts: dict = field(default_factory=dict)
    smallest: dict = field(default_factory=dict)

    def check(self, ok: bool, text: str) -> None:
        if not ok and len(self.failures) < 20:
            self.failures.append(text)
        elif not ok:
            self.failures[-1] = f"(more failures) {text}"


_PROBE_X = np.linspace(0.1, 0.4, 4)
_PROBE_IDX = np.arange(96) % 4


def _probe_once() -> float:
    """Seconds for a fixed mix of interpreter work and small NumPy calls,
    the same kind of work the solvers do."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        w = _PROBE_X[_PROBE_IDX]
        acc += float(np.dot(_PROBE_X, _PROBE_X))
        acc += float(np.bincount(_PROBE_IDX, weights=w, minlength=4)[1])
        acc += sum(k * 0.5 for k in range(10))
    return time.perf_counter() - t0


#: Probe time on the reference host (2-core Intel Xeon VM, Python 3.11,
#: NumPy 2.4) when it is not slowed by other load.
REFERENCE_PROBE_S = 0.0009
#: Longest gap between two speed probes.
PROBE_EVERY_S = 0.2


class Speed:
    """Tracks how fast the machine runs right now.

    The host's speed drifts by a quarter or more over tens of seconds
    under other load. A probe is the mean of three runs of a fixed
    reference computation, made outside the timed intervals at most
    PROBE_EVERY_S apart. Timed intervals are scaled by
    (REFERENCE_PROBE_S / p) ** exponent, with p the mean of the last five
    probes, so a time reads as seconds at the reference host's unloaded
    speed. The exponent is the workload's sensitivity to the drift
    relative to the probe's (see ``speed_exponent`` in WORKLOADS).
    """

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.scale = 1.0
        self.probes = []
        self._at = -math.inf

    def refresh(self) -> float:
        if time.perf_counter() - self._at >= PROBE_EVERY_S:
            self.probes.append(sum(_probe_once() for _ in range(3)) / 3)
            recent = self.probes[-5:]
            self.scale = (REFERENCE_PROBE_S * len(recent)
                          / sum(recent)) ** self.exponent
            self._at = time.perf_counter()
        return self.scale


class Clock:
    """Times one interval on the normalised scale (see :class:`Speed`),
    adds it to a tally, and lets a tracer record only inside timed
    intervals."""

    def __init__(self, tally: Tally, speed: Speed, tracer=None):
        self.tally = tally
        self.speed = speed
        self.tracer = tracer
        self.last = 0.0

    def __enter__(self):
        self._scale = self.speed.refresh()
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        raw = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False
        self.last = raw * self._scale
        self.tally.timed_s += self.last
        self.tally.raw_s += raw
        return False


# ---------------------------------------------------------------------------
# Eigen workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Study:
    tag: str
    tensor: str
    b: str | None
    kind: str
    gamma: float
    alpha: float | None
    init: tuple[float, float]
    trials: int
    extremal: float


#: The bundled studies (``specteig examples``). ``trials`` is the shipped
#: trial count, which fixes the fingerprint rounds; ``extremal`` is the
#: smallest eigenvalue, found at seed 1729.
STUDIES = {
    "5.1": Study("5.1", "example2.tns", None, "Z", 1.0, None, (-1.0, 1.0),
                 100, -1.0954),
    "5.2": Study("5.2", "example3.tns", None, "H", 3.0, 3.0, (0.0, 1.0),
                 100, -10.744),
    "5.3": Study("5.3", "example4_A.tns", "example4_B.tns", "D", 1.0, 10.0,
                 (-1.0, 1.0), 80, -0.3313),
}


def _dense(tensor) -> np.ndarray:
    """Full n**m array of a symmetric tensor, built from its canonical
    entries without the package's kernels."""
    arr = np.zeros((tensor.dim,) * tensor.order)
    for idx, val in tensor.canonical.items():
        for perm in set(permutations(idx)):
            arr[perm] = val
    return arr


def _contract(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    while arr.ndim > 1:
        arr = arr @ x
    return arr


def perm_rows(tensor) -> int:
    """Index rows of the permutation expansion of a symmetric tensor."""
    m = tensor.order
    rows = 0
    for idx in tensor.canonical:
        counts = [idx.count(i) for i in set(idx)]
        rows += math.factorial(m) // math.prod(math.factorial(k)
                                               for k in counts)
    return rows


class EigenWorkload:
    """Multistart eigen-solves of one or more bundled studies per round."""

    def __init__(self, name: str, tags: tuple[str, ...], why: str,
                 tail_pct: float, speed_exponent: float, trace_rounds: int):
        self.name = name
        self.studies = tuple(STUDIES[t] for t in tags)
        self.why = why
        self.tail_pct = tail_pct
        self.speed_exponent = speed_exponent
        self.fingerprint_rounds = max(s.trials for s in self.studies) \
            // TRIALS_PER_CALL
        self.trace_rounds = trace_rounds

    def setup(self, pkg, data: Path, seed: int) -> dict:
        """Raw files to problems ready to solve: load_tensor and
        build_problem for every study."""
        problems = {}
        for s in self.studies:
            a = pkg.load_tensor(data / s.tensor)
            b = pkg.load_tensor(data / s.b) if s.b else None
            problems[s.tag] = pkg.build_problem(a, s.kind, b=b)
        return problems

    def prepare(self, pkg, problems: dict, seed: int) -> dict:
        """Solver configs and the dense reference operators the checks use
        (not part of set-up time)."""
        state = {"base": DEFAULT_SEED + stream_offset(seed), "studies": {}}
        for s in self.studies:
            problem = problems[s.tag]
            inner = pkg.PamConfig(gammas=(s.gamma,) * problem.a.order,
                                  alpha=s.alpha, eps=EPS,
                                  init=pkg.Uniform(*s.init))
            config = pkg.DinkelbachConfig(inner=inner, tol=TOL)
            dense_b = _dense(problem.b.to_symtensor()) \
                if s.kind in ("D", "B") else None
            state["studies"][s.tag] = (config, _dense(problem.a), dense_b)
        return state

    def run_round(self, pkg, state, r: int, problems: dict, tally: Tally,
                  clock: Clock) -> None:
        round_s = 0.0
        trials = 0
        for s in self.studies:
            problem = problems[s.tag]
            config, dense_a, dense_b = state["studies"][s.tag]
            # The fingerprint rounds run the shipped study's trials at every
            # seed: a run's hit count then varies with the seed only through
            # its later rounds (binomial noise of the extremal hit rate gave
            # s_per_hit quartile spreads up to 0.19 over ten seeds).
            base = (DEFAULT_SEED if r < self.fingerprint_rounds
                    else state["base"]) ^ (TRIALS_PER_CALL * r)
            report = None
            with clock:
                try:
                    report = pkg.solve_multistart(
                        problem, TRIALS_PER_CALL, base, config,
                        cluster_tol=CLUSTER_TOL, jobs=1)
                except pkg.SpecteigError as exc:
                    error = exc
            round_s += clock.last
            trials += TRIALS_PER_CALL
            tally.attempted += TRIALS_PER_CALL
            if report is None:
                tally.errors += TRIALS_PER_CALL
                tally.error_text.append(f"{s.tag} round {r}: "
                                        f"{type(error).__name__}: {error}")
                continue
            tally.ok += report.accepted
            self._check(pkg, s, problem, dense_a, dense_b, report, r, tally)
            if r < s.trials // TRIALS_PER_CALL:
                part = tally.fingerprint_parts.setdefault(
                    s.tag, {"trials": 0, "accepted": 0, "pairs": []})
                part["trials"] += report.trials
                part["accepted"] += report.accepted
                part["pairs"].extend(
                    (p.lambda_, p.residual, p.trials_hit, p.mean_inner_iters,
                     p.mean_outer_iters) for p in report.pairs)
            for p in report.pairs:
                if abs(p.lambda_ - s.extremal) <= EXTREMAL_TOL:
                    tally.hits += p.trials_hit
                tally.smallest[s.tag] = min(
                    tally.smallest.get(s.tag, math.inf), p.lambda_)
        tally.samples_ms.append(1000.0 * round_s / trials)

    def _check(self, pkg, s: Study, problem, dense_a, dense_b, report,
               r: int, tally: Tally) -> None:
        m = problem.a.order
        for p in report.pairs:
            x = p.x
            res = pkg.residual(problem, p.lambda_, x)
            tally.check(res <= TOL, f"{s.tag} round {r}: residual {res:.3g} "
                                    f"> tol at lambda {p.lambda_:.6g}")
            if s.kind == "Z":
                bx = float(np.dot(x, x)) ** ((m - 2) // 2) * x
            elif s.kind == "H":
                bx = x ** (m - 1)
            else:
                bx = _contract(dense_b, x)
            dense_res = float(np.linalg.norm(_contract(dense_a, x)
                                             - p.lambda_ * bx))
            tally.check(dense_res <= TOL * (1 + 1e-9) + 1e-12,
                        f"{s.tag} round {r}: dense residual {dense_res:.3g} "
                        f"> tol at lambda {p.lambda_:.6g}")
            ratio = pkg.rayleigh(problem, x)
            tally.check(abs(ratio - p.lambda_) <= 1e-9 * max(1.0, abs(ratio)),
                        f"{s.tag} round {r}: lambda {p.lambda_:.12g} is not "
                        f"the Rayleigh ratio {ratio:.12g}")

    def finish(self, tally: Tally) -> None:
        for s in self.studies:
            low = tally.smallest.get(s.tag, math.inf)
            tally.check(abs(low - s.extremal) <= EXTREMAL_TOL,
                        f"{s.tag}: smallest cluster {low:.6g} is not the "
                        f"extremal eigenvalue {s.extremal}")

    def fingerprint(self, tally: Tally) -> dict:
        out = {}
        for s in self.studies:
            part = tally.fingerprint_parts.get(s.tag)
            if part is None:
                continue
            out[s.tag] = _merge_clusters(part)
        return out

    def working_set(self, problems: dict) -> dict:
        """Computed bytes of each study's permutation cache (index rows of
        m int64 plus one float64 value)."""
        out = {}
        for s in self.studies:
            a = problems[s.tag].a
            out[s.tag] = {"order": a.order, "dim": a.dim,
                          "perm_rows": perm_rows(a),
                          "cache_bytes": perm_rows(a) * (a.order + 1) * 8}
        return out


def _merge_clusters(part: dict) -> dict:
    """Chain the per-call clusters of the fingerprint rounds into clusters
    of the whole study, the way solve_multistart chains trials; each keeps
    the eigenvalue of its smallest-residual member."""
    clusters: list[list[tuple]] = []
    for pair in sorted(part["pairs"]):
        if clusters and pair[0] - clusters[-1][-1][0] < EXTREMAL_TOL:
            clusters[-1].append(pair)
        else:
            clusters.append([pair])
    accepted = part["accepted"]
    rows = []
    inner_all = outer_all = 0.0
    for cluster in clusters:
        hits = sum(c[2] for c in cluster)
        inner = sum(c[2] * c[3] for c in cluster)
        outer = sum(c[2] * c[4] for c in cluster)
        inner_all += inner
        outer_all += outer
        rows.append({
            "lambda": round(min(cluster, key=lambda c: c[1])[0], 9),
            "trials_hit": hits,
            "occurrence_pct": round(100.0 * hits / accepted, 6),
            "mean_inner_iters": round(inner / hits, 6),
            "mean_outer_iters": round(outer / hits, 6),
        })
    return {"trials": part["trials"], "accepted": accepted,
            "mean_inner_iters": round(inner_all / max(accepted, 1), 6),
            "mean_outer_iters": round(outer_all / max(accepted, 1), 6),
            "clusters": rows}


# ---------------------------------------------------------------------------
# Boundary workload
# ---------------------------------------------------------------------------

BATTERY_SEEDS = (1000, 1002)
BATTERY_DIMS = tuple(range(2, 11))
LARGE_DIMS = (15, 30)
BATTERY_DELTA = 2.0
BATTERY_SCALES = (80.0, 80.0, 80.0)
SWEEP_N = 15
SWEEP_SEED = 42
SWEEP_SCALES = (200.0, 8.0, 2.0)
SWEEP_DELTAS = tuple(float(d) for d in range(1, 11))


class BoundaryWorkload:
    """The boundary battery and radius sweep, solved and certified.

    Every round solves the same instances, the default run of
    ``scripts/run_boundary_battery.py``; the run seed does not change
    them. Seeded random instances are not used because about 8% of them
    do not converge and those take most of the solve time, which makes a
    run's throughput depend more on how many it drew than on the solver's
    speed (see README.md).
    """

    def __init__(self, name: str, why: str, tail_pct: float,
                 speed_exponent: float, trace_rounds: int):
        self.name = name
        self.why = why
        self.tail_pct = tail_pct
        self.speed_exponent = speed_exponent
        self.fingerprint_rounds = 1
        self.trace_rounds = trace_rounds

    def setup(self, pkg, data: Path, seed: int) -> list:
        """(label, poly, delta) for every solve of a round: TaylorPoly
        construction, which is this workload's set-up."""
        out = []
        for bseed in BATTERY_SEEDS:
            for n in BATTERY_DIMS:
                out.append((f"battery seed {bseed} n {n}",
                            pkg.random_cubic(n, bseed, BATTERY_SCALES),
                            BATTERY_DELTA))
        for n in LARGE_DIMS:
            out.append((f"battery seed {BATTERY_SEEDS[0]} n {n}",
                        pkg.random_cubic(n, BATTERY_SEEDS[0],
                                         BATTERY_SCALES),
                        BATTERY_DELTA))
        sweep = pkg.random_cubic(SWEEP_N, SWEEP_SEED, SWEEP_SCALES)
        for delta in SWEEP_DELTAS:
            out.append((f"sweep seed {SWEEP_SEED} delta {delta:g}", sweep,
                        delta))
        return out

    def prepare(self, pkg, inputs, seed: int) -> dict:
        return {"config": pkg.BoundaryConfig()}

    def run_round(self, pkg, state, r: int, inputs, tally: Tally,
                  clock: Clock) -> None:
        config = state["config"]
        outcomes = []
        for label, poly, delta in inputs:
            result = None
            with clock:
                try:
                    res = pkg.solve_boundary(poly, delta, config)
                    min_eig, certified = pkg.check_second_order(
                        poly, res.s, res.lambda_)
                    result = res
                except pkg.SpecteigError as exc:
                    error = exc
            tally.samples_ms.append(1000.0 * clock.last)
            tally.attempted += 1
            if result is None:
                tally.errors += 1
                tally.error_text.append(f"{label}: {type(error).__name__}: "
                                        f"{error}")
                outcomes.append(None)
                continue
            good = res.converged and bool(certified)
            tally.ok += good
            tally.hits += good
            self._check(pkg, label, poly, delta, res, config, tally)
            tally.check(good, f"{label}: not converged and certified")
            outcomes.append((res.converged, bool(certified), res.lambda_,
                             res.value, res.inner_iters, res.outer_iters))
        if r == 0:
            tally.fingerprint_parts["boundary"] = outcomes
        else:
            tally.check(outcomes == tally.fingerprint_parts["boundary"],
                        f"round {r} does not reproduce round 0")

    @staticmethod
    def _check(pkg, label, poly, delta, res, config, tally: Tally) -> None:
        radius = float(np.linalg.norm(res.s))
        tally.check(abs(radius - delta) <= 1e-9 * max(1.0, delta),
                    f"{label}: |s| = {radius:.12g} is off the sphere")
        value = poly.evaluate(res.s)
        tally.check(abs(value - res.value) <= 1e-9 * max(1.0, abs(value)),
                    f"{label}: reported value {res.value:.12g} is not the "
                    f"model value {value:.12g}")
        hist = res.history
        tally.check(all(b <= a + 1e-9 * max(1.0, abs(a))
                        for a, b in zip(hist, hist[1:])),
                    f"{label}: outer value history increases")
        gl = float(np.linalg.norm(pkg.lagrangian_grad(poly, res.s,
                                                      res.lambda_)))
        tally.check(gl <= config.tol, f"{label}: |grad L| = {gl:.3g} "
                                      f"above tol")

    def finish(self, tally: Tally) -> None:
        pass

    def fingerprint(self, tally: Tally) -> dict:
        outcomes = [o for o in tally.fingerprint_parts.get("boundary", ())
                    if o is not None]
        if not outcomes:
            return {}
        n = len(outcomes)
        return {"boundary": {
            "instances": n,
            "converged": sum(o[0] for o in outcomes),
            "certified": sum(o[1] for o in outcomes),
            "lambdas": [round(o[2], 6) for o in outcomes],
            "mean_inner_sweeps": round(sum(o[4] for o in outcomes) / n, 6),
            "mean_outer_rounds": round(sum(o[5] for o in outcomes) / n, 6),
            "value_sum": round(sum(o[3] for o in outcomes), 6),
        }}

    def working_set(self, inputs) -> dict:
        out = {}
        for n in BATTERY_DIMS[-1:] + LARGE_DIMS:
            rows = (n + 1) ** 3
            out[f"n={n}"] = {"order": 3, "dim": n + 1, "perm_rows": rows,
                             "cache_bytes": rows * 4 * 8}
        return out


#: ``speed_exponent`` is the least-squares slope of log(time) on
#: log(probe) over 100 s of fixed 1.5 s chunks of the workload on the
#: reference host (it minimised the chunk times' spread: 0.047, 0.09 and
#: 0.072 of the mean against 0.23, 0.19 and 0.15 raw). Interpreter-bound
#: work slows with the probe; vectorised work on larger arrays less.
WORKLOADS = {
    "eigen-h6": EigenWorkload(
        "eigen-h6", ("5.2",),
        "study 5.2, order 6, n = 4: 4,096-row partials plus the 15-pairing "
        "shift dominate; where one-kernel and lockstep-batching changes "
        "should show",
        tail_pct=75.0, speed_exponent=0.66, trace_rounds=25),
    "eigen-order4": EigenWorkload(
        "eigen-order4", ("5.1", "5.3"),
        "studies 5.1 (Z) and 5.3 (D), order 4, n = 3: 81 rows, per-call "
        "Python overhead dominates; a kernel change must not slow it",
        tail_pct=95.0, speed_exponent=1.0, trace_rounds=100),
    "boundary": BoundaryWorkload(
        "boundary",
        "default cubic battery n = 2..30 with certificates plus the n = 15 "
        "radius sweep: order 3, large n, set-up and certificate dominate",
        tail_pct=95.0, speed_exponent=0.53, trace_rounds=6),
}
