"""Monte Carlo estimation and statistical verification of the strategy laws.

Every routine here is a pure function of (poset, parameters, master seed):
trials are drawn in canonical chunks (see engine), tallies are integers, and
aggregation is order-independent addition, so worker count is purely a speed
knob.  Verification checks default to alpha=0.001; a suite runs dozens of
tests, so per-test alpha is kept small enough that the whole bench has a
comfortable multiple-testing budget.

Verified laws, all at desk scale:
  * the k-th arrival is tagged with probability exactly 1/k, independently
    across positions and regardless of the order structure;
  * the last tag before time t lands uniformly on [0, t];
  * pinning a maximal element's arrival at t makes its tag probability equal
    the exact discard-expansion value mu_t(x);
  * the threshold rule accepts a maximal element with probability >= 1/e.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import stats as _sps

from . import engine
from .errors import NotMaximalError, TooLargeError, ZeroTrialsError
from .greedy import mu_t_exact
from .posets import Poset
from .simulate import TAU_DEFAULT

__all__ = [
    "CONFIDENCE_DEFAULT",
    "ALPHA_DEFAULT",
    "TRIALS_DEFAULT",
    "WORKERS_ENV",
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
    "empirical_greedy_max",
]

CONFIDENCE_DEFAULT = 0.99
ALPHA_DEFAULT = 0.001
TRIALS_DEFAULT = 10**6
JOINT_CHECK_CAP = 12  # 2^n cells; beyond this the deep check is pointless
WORKERS_ENV = "POSET_SECRETARY_WORKERS"


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
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, c, rows) for c, rows in layout]
        return [f.result() for f in futures]


def _success_chunk(
    p: Poset, taus: tuple[float, ...], master_seed: int, chunk: int, rows: int
) -> np.ndarray:
    times, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    aorder, tsorted, tagged = engine.batch_tag_matrix(p, times, weights)
    is_max = p.is_maximal
    out = np.empty(len(taus), dtype=np.int64)
    for i, tau in enumerate(taus):
        _, success = engine.batch_accept(aorder, tsorted, tagged, tau, is_max)
        out[i] = int(success.sum())
    return out


def _tag_count_chunk(
    p: Poset, master_seed: int, chunk: int, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    times, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    _, _, tagged = engine.batch_tag_matrix(p, times, weights)
    flags = tagged.astype(np.int64)
    return flags.sum(axis=0), flags.T @ flags


def _pattern_chunk(p: Poset, master_seed: int, chunk: int, rows: int) -> np.ndarray:
    times, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    _, _, tagged = engine.batch_tag_matrix(p, times, weights)
    codes = tagged @ (1 << np.arange(p.n, dtype=np.int64))
    return np.bincount(codes, minlength=1 << p.n)


def _last_tag_chunk(p: Poset, t: float, master_seed: int, chunk: int, rows: int) -> np.ndarray:
    times, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    _, tsorted, tagged = engine.batch_tag_matrix(p, times, weights)
    vals = engine.batch_last_tag_time(tsorted, tagged, t)
    return vals[~np.isnan(vals)]


def _pinned_tag_chunk(
    p: Poset, x: int, t: float, master_seed: int, chunk: int, rows: int
) -> int:
    times, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    times = times.copy()
    times[:, x] = t
    aorder, _, tagged = engine.batch_tag_matrix(p, times, weights)
    k = np.argmax(aorder == x, axis=1)
    flags = np.take_along_axis(tagged, k[:, None], axis=1)[:, 0]
    return int(flags.sum())


def _greedy_count_chunk(p: Poset, master_seed: int, chunk: int, rows: int) -> np.ndarray:
    _, weights = engine.chunk_uniforms(p.n, master_seed, chunk, rows)
    z = engine.batch_greedy_maximum(p.lt, weights)
    return np.bincount(z, minlength=p.n)


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
    for tau in taus:
        if not 0.0 <= tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {tau}")
    tallies = _run_chunks(partial(_success_chunk, p, taus, master_seed), trials, workers)
    totals = np.sum(tallies, axis=0)
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


def verify_tag_marginals(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    min_per_position: int = 1000,
    workers: int | None = None,
) -> list[LemmaReport]:
    """Check that the k-th arrival is tagged with frequency 1/k, per k.

    Two-sided exact binomial test per position; the first position is tagged
    with probability one and serves as a sanity anchor.
    """
    engine.check_sim_cap(p.n)
    if min_per_position and trials < p.n * min_per_position:
        raise ValueError(
            f"need trials >= {p.n * min_per_position} for {p.n} positions "
            f"(min_per_position={min_per_position})"
        )
    tallies = _run_chunks(partial(_tag_count_chunk, p, master_seed), trials, workers)
    marg = np.sum([m for m, _ in tallies], axis=0)
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


def _pairwise_reports(
    marg: np.ndarray, joint: np.ndarray, trials: int, alpha: float
) -> list[LemmaReport]:
    n = marg.shape[0]
    reports = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
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


def _triple_reports(
    pattern: np.ndarray, n: int, trials: int, alpha: float
) -> list[LemmaReport]:
    """Goodness of fit of each (A_i, A_j, A_k) contingency cube, i,j,k >= 2,
    against the product law with marginals 1/i, 1/j, 1/k."""
    codes = np.arange(pattern.shape[0])
    reports = []
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                observed = np.zeros(8, dtype=np.int64)
                cell = (
                    ((codes >> (i - 1)) & 1)
                    | (((codes >> (j - 1)) & 1) << 1)
                    | (((codes >> (k - 1)) & 1) << 2)
                )
                np.add.at(observed, cell, pattern)
                expected = np.empty(8, dtype=float)
                for c in range(8):
                    pr = 1.0
                    for bit, pos in enumerate((i, j, k)):
                        q = 1.0 / pos
                        pr *= q if (c >> bit) & 1 else 1.0 - q
                    expected[c] = pr * trials
                chi2, pval = _sps.chisquare(observed, expected)
                reports.append(
                    LemmaReport(
                        statistic=f"tag_triple[{i},{j},{k}]",
                        observed=float(chi2),
                        reference="chi2(df=7) under the product law",
                        p_value=float(pval),
                        passed=float(pval) >= alpha,
                        sample_size=trials,
                    )
                )
    return reports


def verify_tag_independence(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    triples: bool = False,
    workers: int | None = None,
) -> list[LemmaReport]:
    """Pairwise chi-square independence tests over all tag-event pairs.

    Pairs involving a constant indicator (position 1 is always tagged) are
    reported as trivially independent.  With ``triples=True`` (n <= 12) each
    position triple is additionally tested against its exact product law.
    """
    engine.check_sim_cap(p.n)
    if triples and p.n > JOINT_CHECK_CAP:
        raise TooLargeError(f"triple checks tabulate 2^n patterns; n={p.n} exceeds {JOINT_CHECK_CAP}")
    if triples:
        pattern = np.sum(
            _run_chunks(partial(_pattern_chunk, p, master_seed), trials, workers), axis=0
        )
        marg = np.array(
            [pattern[(np.arange(1 << p.n) >> b) & 1 == 1].sum() for b in range(p.n)],
            dtype=np.int64,
        )
        joint = np.zeros((p.n, p.n), dtype=np.int64)
        codes = np.arange(1 << p.n)
        for a in range(p.n):
            for b in range(p.n):
                sel = (((codes >> a) & 1) & ((codes >> b) & 1)) == 1
                joint[a, b] = pattern[sel].sum()
    else:
        tallies = _run_chunks(partial(_tag_count_chunk, p, master_seed), trials, workers)
        marg = np.sum([m for m, _ in tallies], axis=0)
        joint = np.sum([j for _, j in tallies], axis=0)
    reports = _pairwise_reports(marg, joint, trials, alpha)
    if triples and p.n >= 4:
        reports.extend(_triple_reports(pattern, p.n, trials, alpha))
    return reports


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
    pattern = np.sum(
        _run_chunks(partial(_pattern_chunk, p, master_seed), trials, workers), axis=0
    )
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
        return LemmaReport("tag_joint", 0.0, "exact product law", None, passed, trials)
    chi2, pval = _sps.chisquare(pattern[possible], prob[possible] * trials)
    return LemmaReport(
        statistic="tag_joint",
        observed=float(chi2),
        reference=f"chi2(df={int(possible.sum()) - 1}) under the product law",
        p_value=float(pval),
        passed=impossible_hits == 0 and float(pval) >= alpha,
        sample_size=trials,
    )


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
    engine.check_sim_cap(p.n)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    chunks = _run_chunks(partial(_last_tag_chunk, p, t, master_seed), trials, workers)
    values = np.concatenate(chunks) / t
    if values.size == 0:
        raise ValueError("no trial had an arrival before t; increase trials")
    ks, pval = _sps.kstest(values, "uniform")
    return LemmaReport(
        statistic=f"last_tag_uniform[t={t!r}]",
        observed=float(ks),
        reference="uniform[0,1]",
        p_value=float(pval),
        passed=float(pval) >= alpha,
        sample_size=int(values.size),
    )


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
    engine.check_sim_cap(p.n)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not 0 <= x < p.n:
        raise IndexError(f"element {x} out of range for n={p.n}")
    if x not in p.maximal:
        raise NotMaximalError(f"element {x} is not maximal")
    mu = float(mu_t_exact(p, x, Fraction(t)))
    hits = sum(_run_chunks(partial(_pinned_tag_chunk, p, x, t, master_seed), trials, workers))
    freq = hits / trials
    se = math.sqrt(mu * (1.0 - mu) / trials)
    return LemmaReport(
        statistic=f"tagged_given_arrival[x={x},t={t!r}]",
        observed=freq,
        reference=mu,
        p_value=None,
        passed=abs(freq - mu) <= 4.0 * se,
        sample_size=trials,
    )
