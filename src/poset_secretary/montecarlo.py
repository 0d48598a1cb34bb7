"""Monte Carlo estimation and statistical verification of the strategy laws.

Every routine here is a pure function of (poset, parameters, master seed):
trials are drawn in canonical chunks (see engine), tallies are integers, and
aggregation is order-independent addition, so worker count is purely a speed
knob.  Verification checks default to alpha=0.001 per test, with no
family-wise control, so a suite of dozens of tests flags a correct
implementation far more often than alpha.

One pass per chunk: each canonical chunk is drawn and tagged once
(_tag_chunk), and every statistic is a reducer of that chunk's (times,
weights, aorder, tsorted, tagged).  verify_lemmas runs all requested checks
over one pass and at most one process pool; each per-lemma function runs the
same code path with its own check.

Verified laws, all at desk scale:
  * the k-th arrival is tagged with probability exactly 1/k, independently
    across positions and regardless of the order structure;
  * the last tag before time t lands uniformly on [0, t];
  * pinning a maximal element's arrival at t makes its tag probability equal
    the exact value mu_t(x);
  * the threshold rule accepts a maximal element with probability >= 1/e.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from multiprocessing import Value
from typing import Callable, Collection, Sequence

import numpy as np
from scipy import stats as _sps

from . import engine
from .errors import NotMaximalError, TooLargeError, ZeroTrialsError
from .greedy import MU_T_CAP, check_mu_monotonicity, greedy_scan, mu_t_exact
from .posets import Poset
from .simulate import TAU_DEFAULT

__all__ = [
    "CONFIDENCE_DEFAULT",
    "ALPHA_DEFAULT",
    "TRIALS_DEFAULT",
    "WORKERS_ENV",
    "LEMMAS",
    "LAST_TAG_TIMES",
    "PINNED_TIMES",
    "MONOTONICITY_GRID",
    "Estimate",
    "LemmaReport",
    "wilson_interval",
    "estimate_success",
    "threshold_sweep",
    "verify_tag_marginals",
    "verify_tag_independence",
    "verify_tag_joint",
    "verify_last_tag_uniform",
    "verify_tagged_given_arrival",
    "verify_lemmas",
    "empirical_greedy_max",
]

CONFIDENCE_DEFAULT = 0.99
ALPHA_DEFAULT = 0.001
TRIALS_DEFAULT = 10**6
JOINT_CHECK_CAP = 12  # 2^n cells; beyond this the deep check is pointless
WORKERS_ENV = "POSET_SECRETARY_WORKERS"
MIN_PER_POSITION = 1000  # trials per arrival position the marginal check asks for

# what verify_lemmas checks: the lemma names and their per-check defaults
LEMMAS = ("2", "3", "4", "5")
LAST_TAG_TIMES = (0.5, 1.0)
PINNED_TIMES = (0.25, 0.5, 1.0)
MONOTONICITY_GRID = tuple(Fraction(k, 16) for k in range(17))


@dataclass(frozen=True)
class Estimate:
    """Success-frequency point estimate with a Wilson score interval."""

    successes: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    master_seed: int
    tau: float
    confidence: float = CONFIDENCE_DEFAULT

    def __post_init__(self) -> None:
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("interval must satisfy 0 <= low <= p_hat <= high <= 1")
        if self.p_hat != self.successes / self.trials:
            raise ValueError("p_hat must equal successes / trials")


@dataclass(frozen=True)
class LemmaReport:
    """One verification check: what was measured, against what, and verdict."""

    statistic: str
    observed: float
    reference: float | str
    p_value: float | None
    passed: bool
    sample_size: int


def wilson_interval(
    successes: int, trials: int, confidence: float = CONFIDENCE_DEFAULT
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ZeroTrialsError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = float(_sps.norm.ppf((1.0 + confidence) / 2.0))
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# -- chunked drivers ---------------------------------------------------------


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _pin_worker(started) -> None:
    """Pool initializer: worker i runs on the i-th allowed CPU, not stacked on its parent's."""
    with started:
        started.value += 1
        if hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[started.value % len(cpus)]})


def _run_chunks(task: Callable, trials: int, workers: int | None) -> list:
    """Apply a per-chunk tally function over the canonical chunk layout.

    Results are collected in chunk order; tallies are integers or arrays of
    integers, so any reduction downstream is partition-independent.
    """
    if trials < 1:
        raise ZeroTrialsError("need at least one trial")
    layout = engine.chunk_layout(trials)
    workers = _resolve_workers(workers)
    if workers == 1 or len(layout) == 1:
        return [task(c, rows) for c, rows in layout]
    with ProcessPoolExecutor(workers, initializer=_pin_worker, initargs=(Value("i"),)) as pool:
        futures = [pool.submit(task, c, rows) for c, rows in layout]
        return [f.result() for f in futures]


def _tag_chunk(
    p: Poset, reducers: tuple[Callable, ...], master_seed: int, chunk: int, rows: int
) -> list:
    """Draw and tag one canonical chunk, then apply every reducer to it."""
    times, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    aorder, tsorted, tagged = engine.batch_tag_matrix(p, times, weights)
    return [reduce(times, weights, aorder, tsorted, tagged) for reduce in reducers]


def _greedy_count_chunk(p: Poset, master_seed: int, chunk: int, rows: int) -> np.ndarray:
    _, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    z = engine.batch_greedy_maximum(p.lt, weights)
    return np.bincount(z, minlength=p.n)


# -- reducers: (times, weights, aorder, tsorted, tagged) of one chunk -> tally --
# Module-level functions bound with partial, so they pickle for the pool.


def _success_counts(is_maximal, taus, times, weights, aorder, tsorted, tagged) -> np.ndarray:
    out = np.empty(len(taus), dtype=np.int64)
    for i, tau in enumerate(taus):
        _, success = engine.batch_accept(aorder, tsorted, tagged, tau, is_maximal)
        out[i] = int(success.sum())
    return out


def _tag_pair_counts(times, weights, aorder, tsorted, tagged) -> np.ndarray:
    # float64 runs on BLAS and is exact: a chunk's counts stay far below 2^53
    flags = tagged.astype(np.float64)
    return (flags.T @ flags).astype(np.int64)


def _tag_pattern_counts(times, weights, aorder, tsorted, tagged) -> np.ndarray:
    n = tagged.shape[1]
    codes = tagged @ (1 << np.arange(n, dtype=np.int64))
    return np.bincount(codes, minlength=1 << n)


def _last_tag_values(t, times, weights, aorder, tsorted, tagged) -> np.ndarray:
    vals = engine.batch_last_tag_time(tsorted, tagged, t)
    return vals[~np.isnan(vals)]


def _pinned_tags(
    lt: np.ndarray, x: int, t: float, times: np.ndarray, worder: np.ndarray
) -> np.ndarray:
    """Per row: is x tagged when its arrival time is replaced by t?

    No tag matrix needed: x is tagged iff it is the greedy maximum of itself
    and every y with time_y < t, or time_y == t and y < x (the stable arrival
    sort's tie rule), scanned in each row's stable weight order ``worder``.
    """
    member = (times < t) | ((times == t) & (np.arange(times.shape[1]) < x))
    member[:, x] = True
    return greedy_scan(lt, worder, member) == x


def _pinned_hits(lt, pins, times, weights, aorder, tsorted, tagged) -> np.ndarray:
    worder = np.argsort(weights, axis=1, kind="stable").astype(np.uint8)  # n <= SIM_CAP
    return np.array(
        [np.count_nonzero(_pinned_tags(lt, x, t, times, worder)) for x, t in pins], dtype=np.int64
    )


# -- estimation ---------------------------------------------------------------


def threshold_sweep(
    p: Poset,
    taus: Sequence[float],
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    workers: int | None = None,
    confidence: float = CONFIDENCE_DEFAULT,
) -> list[Estimate]:
    """One Estimate per threshold, all sharing the same trials.

    Common random numbers: the tag matrices are computed once per chunk and
    re-thresholded, so sweep curves are smooth in tau by construction.
    """
    engine.check_sim_cap(p.n)
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ValueError("need at least one threshold")
    for tau in taus:
        if not 0.0 <= tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {tau}")
    reducer = partial(_success_counts, p.is_maximal, taus)
    tallies = _run_chunks(partial(_tag_chunk, p, (reducer,), master_seed), trials, workers)
    totals = np.sum([counts for counts, in tallies], axis=0)
    out = []
    for tau, successes in zip(taus, totals):
        successes = int(successes)
        low, high = wilson_interval(successes, trials, confidence)
        out.append(
            Estimate(successes, trials, successes / trials, low, high, master_seed, tau, confidence)
        )
    return out


def estimate_success(
    p: Poset,
    tau: float = TAU_DEFAULT,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    workers: int | None = None,
    confidence: float = CONFIDENCE_DEFAULT,
) -> Estimate:
    """Monte Carlo success probability of the threshold strategy."""
    return threshold_sweep(p, [tau], trials, master_seed, workers, confidence)[0]


def empirical_greedy_max(
    p: Poset, samples: int, master_seed: int = 0, workers: int | None = None
) -> np.ndarray:
    """Per-element counts of being the greedy maximum under random weights."""
    tallies = _run_chunks(partial(_greedy_count_chunk, p, master_seed), samples, workers)
    return np.sum(tallies, axis=0)


# -- verification -------------------------------------------------------------
#
# A check is a (reducer, report) pair, built only after its parameters are
# validated: the reducer runs on every chunk, and report turns the list of
# per-chunk tallies, in chunk order, into LemmaReports.


def _run_checks(
    p: Poset, checks: Sequence[tuple], trials: int, master_seed: int, workers: int | None
) -> list[LemmaReport]:
    """Every check over one pass of the canonical chunks; reports in check order.

    Checks that share a reducer share its tally, so it runs once per chunk.
    """
    if not checks:
        return []
    reducers = tuple(dict.fromkeys(reduce for reduce, _ in checks))
    per_chunk = _run_chunks(partial(_tag_chunk, p, reducers, master_seed), trials, workers)
    tallies = dict(zip(reducers, zip(*per_chunk)))
    reports = []
    for reduce, report in checks:
        reports += report(list(tallies[reduce]))
    return reports


def _marginal_check(p: Poset, trials: int, alpha: float, min_per_position: int) -> tuple:
    engine.check_sim_cap(p.n)
    if min_per_position and trials < p.n * min_per_position:
        raise ValueError(
            f"need trials >= {p.n * min_per_position} for {p.n} positions "
            f"(min_per_position={min_per_position})"
        )

    def report(tallies):
        marg = np.diagonal(np.sum(tallies, axis=0))
        reports = []
        for k in range(1, p.n + 1):
            hits = int(marg[k - 1])
            ref = 1.0 / k
            pval = float(_sps.binomtest(hits, trials, ref).pvalue)
            reports.append(
                LemmaReport(
                    statistic=f"tag_marginal[k={k}]",
                    observed=hits / trials,
                    reference=ref,
                    p_value=pval,
                    passed=pval >= alpha,
                    sample_size=trials,
                )
            )
        return reports

    return _tag_pair_counts, report


def verify_tag_marginals(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    min_per_position: int = MIN_PER_POSITION,
    workers: int | None = None,
) -> list[LemmaReport]:
    """Check that the k-th arrival is tagged with frequency 1/k, per k.

    Two-sided exact binomial test per position; the first position is tagged
    with probability one and serves as a sanity anchor.
    """
    check = _marginal_check(p, trials, alpha, min_per_position)
    return _run_checks(p, [check], trials, master_seed, workers)


def _independence_check(p: Poset, trials: int, alpha: float) -> tuple:
    engine.check_sim_cap(p.n)

    def report(tallies):
        joint = np.sum(tallies, axis=0)
        marg = np.diagonal(joint)
        reports = []
        for j in range(1, p.n + 1):
            for k in range(j + 1, p.n + 1):
                a, b = int(marg[j - 1]), int(marg[k - 1])
                both = int(joint[j - 1, k - 1])
                if a in (0, trials) or b in (0, trials):
                    reports.append(
                        LemmaReport(
                            statistic=f"tag_independence[j={j},k={k}]",
                            observed=0.0,
                            reference="degenerate: constant indicator",
                            p_value=None,
                            passed=True,
                            sample_size=trials,
                        )
                    )
                    continue
                table = np.array(
                    [[both, a - both], [b - both, trials - a - b + both]], dtype=np.int64
                )
                chi2, pval, _, _ = _sps.chi2_contingency(table, correction=False)
                reports.append(
                    LemmaReport(
                        statistic=f"tag_independence[j={j},k={k}]",
                        observed=float(chi2),
                        reference="chi2(df=1) under independence",
                        p_value=float(pval),
                        passed=float(pval) >= alpha,
                        sample_size=trials,
                    )
                )
        return reports

    return _tag_pair_counts, report


def verify_tag_independence(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int | None = None,
) -> list[LemmaReport]:
    """Pairwise chi-square independence tests over all tag-event pairs.

    Pairs involving a constant indicator (position 1 is always tagged) are
    reported as trivially independent.
    """
    check = _independence_check(p, trials, alpha)
    return _run_checks(p, [check], trials, master_seed, workers)


def verify_tag_joint(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int | None = None,
) -> LemmaReport:
    """Deep check: all 2^n tag patterns against the exact joint product law.

    Patterns missing the always-tagged first position have expectation zero
    and must not occur; the chi-square runs over the remaining 2^(n-1) cells.
    """
    if p.n > JOINT_CHECK_CAP:
        raise TooLargeError(f"joint check tabulates 2^n patterns; n={p.n} exceeds {JOINT_CHECK_CAP}")

    def report(tallies):
        pattern = np.sum(tallies, axis=0)
        codes = np.arange(1 << p.n)
        prob = np.ones(1 << p.n, dtype=float)
        for k in range(1, p.n + 1):
            bit = (codes >> (k - 1)) & 1
            prob *= np.where(bit == 1, 1.0 / k, 1.0 - 1.0 / k)
        possible = prob > 0.0
        impossible_hits = int(pattern[~possible].sum())
        if p.n == 1:
            # single cell, nothing to test: the pattern must be all-ones
            passed = impossible_hits == 0
            return [LemmaReport("tag_joint", 0.0, "exact product law", None, passed, trials)]
        chi2, pval = _sps.chisquare(pattern[possible], prob[possible] * trials)
        return [
            LemmaReport(
                statistic="tag_joint",
                observed=float(chi2),
                reference=f"chi2(df={int(possible.sum()) - 1}) under the product law",
                p_value=float(pval),
                passed=impossible_hits == 0 and float(pval) >= alpha,
                sample_size=trials,
            )
        ]

    return _run_checks(p, [(_tag_pattern_counts, report)], trials, master_seed, workers)[0]


def _last_tag_check(p: Poset, t: float, alpha: float) -> tuple:
    engine.check_sim_cap(p.n)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")

    def report(tallies):
        values = np.concatenate(tallies) / t
        if values.size == 0:
            raise ValueError("no trial had an arrival before t; increase trials")
        ks, pval = _sps.kstest(values, "uniform")
        return [
            LemmaReport(
                statistic=f"last_tag_uniform[t={t!r}]",
                observed=float(ks),
                reference="uniform[0,1]",
                p_value=float(pval),
                passed=float(pval) >= alpha,
                sample_size=int(values.size),
            )
        ]

    return partial(_last_tag_values, t), report


def verify_last_tag_uniform(
    p: Poset,
    t: float = 1.0,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int | None = None,
) -> LemmaReport:
    """KS test: the last tag before time t, rescaled by 1/t, is Uniform[0,1].

    Conditioning is on at least one arrival before t (the first arrival is
    always tagged, so the statistic then exists).
    """
    check = _last_tag_check(p, t, alpha)
    return _run_checks(p, [check], trials, master_seed, workers)[0]


def _pinned_check(p: Poset, pins: Sequence[tuple[int, float]], trials: int) -> tuple:
    engine.check_sim_cap(p.n)
    for x, t in pins:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if not 0 <= x < p.n:
            raise IndexError(f"element {x} out of range for n={p.n}")
        if x not in p.maximal:
            raise NotMaximalError(f"element {x} is not maximal")
    if p.n > MU_T_CAP:
        raise TooLargeError(f"pinned-arrival check needs n <= {MU_T_CAP}, got {p.n}")

    def report(tallies):
        reports = []
        for (x, t), hits in zip(pins, np.sum(tallies, axis=0)):
            mu = float(mu_t_exact(p, x, Fraction(t)))
            freq = int(hits) / trials
            se = math.sqrt(mu * (1.0 - mu) / trials)
            reports.append(
                LemmaReport(
                    statistic=f"tagged_given_arrival[x={x},t={t!r}]",
                    observed=freq,
                    reference=mu,
                    p_value=None,
                    passed=abs(freq - mu) <= 4.0 * se,
                    sample_size=trials,
                )
            )
        return reports

    return partial(_pinned_hits, p.lt, pins), report


def verify_tagged_given_arrival(
    p: Poset,
    x: int,
    t: float,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    workers: int | None = None,
) -> LemmaReport:
    """Pin x's arrival at time t and compare its tag frequency to mu_t(x).

    Arrival times are independent, so conditioning on the measure-zero event
    "x arrives at t" is implemented by substitution, not rejection.  Passes
    when the frequency lands within four binomial standard errors of the
    exact value.
    """
    check = _pinned_check(p, [(x, t)], trials)
    return _run_checks(p, [check], trials, master_seed, workers)[0]


def verify_lemmas(
    p: Poset,
    lemmas: Collection[str],
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int | None = None,
) -> list[LemmaReport]:
    """The checks of the named lemmas (any of LEMMAS), over one pass.

    "2": tag marginals and pairwise independence; "3": last-tag uniformity
    at LAST_TAG_TIMES; "4": pinned-arrival tag frequency against the exact
    mu_t, for every maximal element at PINNED_TIMES; "5": the exact
    mu_t >= mu sweep over MONOTONICITY_GRID.  Every check is validated
    before any chunk is drawn, in that order, and reports come in it.
    """
    unknown = set(lemmas) - set(LEMMAS)
    if unknown:
        raise ValueError(f"unknown lemmas {sorted(unknown)}; choose from {LEMMAS}")
    checks = []
    if "2" in lemmas:
        checks.append(_marginal_check(p, trials, alpha, MIN_PER_POSITION))
        checks.append(_independence_check(p, trials, alpha))
    if "3" in lemmas:
        checks += [_last_tag_check(p, t, alpha) for t in LAST_TAG_TIMES]
    if "4" in lemmas:
        pins = [(x, t) for x in sorted(p.maximal) for t in PINNED_TIMES]
        checks.append(_pinned_check(p, pins, trials))
    if "5" in lemmas and p.n > MU_T_CAP:
        raise TooLargeError(f"monotonicity check needs n <= {MU_T_CAP}, got {p.n}")
    reports = _run_checks(p, checks, trials, master_seed, workers)
    if "5" in lemmas:
        mono = check_mu_monotonicity(p, MONOTONICITY_GRID)
        reports.append(
            LemmaReport(
                statistic="mu_monotonicity",
                observed=float(len(mono.violations)),
                reference="mu_t(x) >= mu(x) at every grid point",
                p_value=None,
                passed=mono.ok,
                sample_size=mono.checks,
            )
        )
    return reports
