"""Monte Carlo estimation and statistical verification of the strategy laws.

Every routine here is a pure function of (poset, parameters, master seed):
trials are drawn in canonical chunks (see engine), tallies are integer
counts, added, or last-tag samples, copied in trial order into one buffer,
so worker count is purely a speed knob.  Verification checks default to
alpha=0.001 per test, with no family-wise control, so a suite of dozens of
tests flags a correct implementation far more often than alpha.

One pass per chunk: each canonical chunk is drawn once, piece by piece
(_tag_chunk, through engine.chunk_tags), and every statistic is a reducer
that reads only the engine.Piece fields it needs, so a pass builds only
those.  Tallies add over the pieces into one per chunk, and the chunks'
tallies add into running totals as they arrive (_fold), so no list of
per-chunk tallies is kept; lemma 3's samples fill a float64 buffer of
fixed size, which its report divides, sorts and tests in place.  Times
pass only as order keys.  Acceptance and the last tag before t read only
Piece.tag_keys, so on a chain they sort nothing and build no tag matrix;
the lemma-2 checks, which count by arrival position, read
Piece.arrival_tags.  Lemma 4's pinned check reads no tag flags, so it
runs no tag kernel: engine.batch_pinned_tags runs one bitmask scan over
the piece's series order per pinned time, shared by every maximal element.
empirical_greedy_max is that check at t = 1: a maximal element pinned after
every other arrival is tagged iff it is the greedy maximum.  Every scan
lives in engine, and this module calls only its public names.  Every
estimate and check is a (reducer, report) pair run by _run_checks:
verify_lemmas runs all requested checks over one pass, and each per-lemma
function and threshold_sweep run the same code path with their own.

With workers > 1 the chunks run on forked children, one pipe each
(_run_chunks): child i computes chunks i, i + workers, ..., pickles each
chunk's tallies into its pipe and blocks there until they are read, so it
runs at most one chunk ahead; the parent computes none and reads the
chunks back in chunk order.  Where os.fork does not exist they run
in-process.  Either way the bytes out are the same.

P-values come from pvalues: the exact two-sided binomial test for each tag
marginal, Pearson's chi-square for pairwise independence and the joint
pattern law, and the exact one-sample KS test for last-tag uniformity, each
bit-identical to SciPy's own tests but computed from scipy.special alone.

Verified laws, all at desk scale:
  * the k-th arrival is tagged with probability exactly 1/k, independently
    across positions and regardless of the order structure;
  * the last tag before time t lands uniformly on [0, t];
  * pinning a maximal element's arrival at t makes its tag probability equal
    the exact value mu_t(x);
  * the threshold rule accepts a maximal element with probability >= 1/e.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal

# Not used here: bound so that tools which patch montecarlo.ProcessPoolExecutor
# (perfbench's tracer replaces it to time pools) still find the name.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from . import engine, pvalues
from .errors import NotMaximalError, TooLargeError, ZeroTrialsError
from .greedy import MuTable, check_mu_monotonicity, mu_exact
from .posets import Poset
from .simulate import TAU_DEFAULT

__all__ = [
    "CONFIDENCE_DEFAULT",
    "ALPHA_DEFAULT",
    "TRIALS_DEFAULT",
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
_Z = 2.5758293035489004  # the standard normal quantile at (1 + CONFIDENCE_DEFAULT) / 2
ALPHA_DEFAULT = 0.001
TRIALS_DEFAULT = 10**6
JOINT_CHECK_CAP = 12  # 2^n cells; beyond this the deep check is pointless
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at CONFIDENCE_DEFAULT.

    Clamped to [0, p_hat] and [p_hat, 1]: at successes 0 or trials the exact
    endpoint is p_hat itself, which the rounded formula can miss by an ulp.
    """
    if trials < 1:
        raise ZeroTrialsError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    z2 = _Z * _Z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = (_Z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    return min(max(0.0, center - half), p_hat), max(min(1.0, center + half), p_hat)


# -- chunked drivers ---------------------------------------------------------


def _run_chunks(task: Callable, trials: int, workers: int) -> Iterator:
    """Yield a per-chunk tally function's results over the canonical chunk layout.

    Results come in chunk order, each as soon as its chunk is done, so every
    total, lemma 3's row-ordered float samples included, is
    partition-independent.  With one worker, or where os.fork does not
    exist, the chunks run in this process; otherwise on forked children
    (_forked_chunks): no more than chunks, or than usable CPUs.
    """
    if trials < 1:
        raise ZeroTrialsError("need at least one trial")
    chunks = -(-trials // engine.CHUNK_TRIALS)
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    else:
        cpus = [None] * (os.cpu_count() or 1)  # a count alone: nowhere to pin
    workers = min(workers, chunks, len(cpus))
    if workers == 1 or not hasattr(os, "fork"):
        for c, rows in engine.chunk_layout(trials):
            yield task(c, rows)
        return
    # child i goes on allowed CPU (i + 1) mod cpus, counting from 0; the caller stays unpinned
    yield from _forked_chunks(task, trials, [cpus[(i + 1) % len(cpus)] for i in range(workers)])


def _forked_chunks(task: Callable, trials: int, cpus: Sequence) -> Iterator:
    """Run chunks on one forked child per CPU in `cpus`; yield results in chunk order.

    Child i computes chunks c = i (mod children) in order, pinned to cpus[i]
    when that is a CPU number, and writes each result to its own pipe as one
    pickle; this process computes none and reads chunk c from child
    c mod children.  A child blocks on its pipe until its last chunk is read
    (bar the pipe's buffer), so it runs at most one chunk ahead.  A task's
    exception is raised here, and a child that dies before sending a chunk
    makes this raise RuntimeError.  However the pass ends, every child is
    killed and reaped.
    """
    workers = len(cpus)
    children = []  # (pid, read end of its pipe)
    try:
        for i, cpu in enumerate(cpus):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: it must never return into this frame
                code = 1
                try:
                    os.close(r)
                    for _, reader in children:
                        reader.close()
                    _serve(task, trials, i, workers, cpu, w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        for c, _ in engine.chunk_layout(trials):
            pid, reader = children[c % workers]
            try:
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {pid} exited before sending chunk {c}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _serve(task: Callable, trials: int, i: int, workers: int, cpu, fd: int) -> None:
    """Child i's loop: compute its chunks in order and pickle each result into fd.

    A task's exception is sent in place of its result and ends the loop.
    """
    if cpu is not None:
        with contextlib.suppress(OSError):  # placement is only a speed hint
            os.sched_setaffinity(0, {cpu})
    with os.fdopen(fd, "wb") as out:
        for c, rows in itertools.islice(engine.chunk_layout(trials), i, None, workers):
            try:
                frame = pickle.dumps((True, task(c, rows)))
            except Exception as exc:
                out.write(pickle.dumps((False, exc)))
                return
            out.write(frame)
            out.flush()


class _Samples:
    """Last-tag samples in trial order: the front of a float64 buffer of fixed size.

    `+=` copies another tally's samples in after its own; the buffer never
    grows.  A pickled tally carries only its samples.
    """

    __slots__ = ("buffer", "size")

    def __init__(self, buffer: np.ndarray, size: int):
        self.buffer, self.size = buffer, size

    @property
    def values(self) -> np.ndarray:
        return self.buffer[: self.size]

    def __iadd__(self, other: _Samples) -> _Samples:
        end = self.size + other.size
        self.buffer[self.size : end] = other.values
        self.size = end
        return self

    def __reduce__(self):
        return _Samples, (self.values, self.size)


def _fold(tallies: Iterator[Sequence], size: int) -> list:
    """Add a stream of tally lists into running totals, position by position.

    The first list starts the totals, each sample tally copied into a buffer
    of `size` samples; every later one adds in place: an array adds, a
    sample tally copies its samples in after the total's.
    """
    totals = []
    for tally in next(tallies):
        if isinstance(tally, _Samples):
            total = _Samples(np.empty(size), 0)
            total += tally
            tally = total
        totals.append(tally)
    for tally in tallies:
        for total, more in zip(totals, tally):
            total += more
    return totals


def _tag_chunk(
    p: Poset, reducers: tuple[Callable, ...], master_seed: int, chunk: int, rows: int
) -> list:
    """Draw and tag one canonical chunk; one tally per reducer, added over its pieces."""
    pieces = engine.chunk_tags(p, master_seed, chunk, rows)
    return _fold(([reduce(piece) for reduce in reducers] for piece in pieces), rows)


def _run_checks(
    p: Poset, checks: Sequence[tuple], trials: int, master_seed: int, workers: int
) -> list:
    """Every check over one pass of the canonical chunks; reports in check order.

    A check is a (reducer, report) pair, built only after its parameters are
    validated: the reducer runs on every piece, each chunk's tallies add
    into running totals as they arrive, and report turns its reducer's
    total into a list of results.  Checks that share a reducer share its
    total, so it runs once per piece; a report may change its total in
    place only when no other check shares that reducer.
    """
    engine.check_seed(master_seed)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not checks:
        return []
    reducers = tuple(dict.fromkeys(reduce for reduce, _ in checks))
    chunks = _run_chunks(partial(_tag_chunk, p, reducers, master_seed), trials, workers)
    totals = dict(zip(reducers, _fold(chunks, trials)))
    reports = []
    for reduce, report in checks:
        reports += report(totals[reduce])
    return reports


# -- reducers: one engine.Piece -> tally, reading its fields by name -----------
# Module-level functions, bound with partial.


def _success_counts(is_maximal, taus, piece: engine.Piece) -> np.ndarray:
    out = np.empty(len(taus), dtype=np.int64)
    for i, tau in enumerate(taus):
        _, success = engine.batch_accept(piece.tag_keys, tau, is_maximal)
        out[i] = int(success.sum())
    return out


def _tag_pair_counts(piece: engine.Piece) -> np.ndarray:
    # float64 runs on BLAS and is exact: a piece's counts stay far below 2^53
    flags = piece.arrival_tags.astype(np.float64)
    return (flags @ flags.T).astype(np.int64)


def _tag_pattern_counts(piece: engine.Piece) -> np.ndarray:
    flags = piece.arrival_tags
    codes = (1 << np.arange(len(flags), dtype=np.int64)) @ flags
    return np.bincount(codes, minlength=1 << len(flags))


def _last_tag_values(t, piece: engine.Piece) -> _Samples:
    vals = engine.batch_last_tag_time(piece.tag_keys, t)
    vals = vals[~np.isnan(vals)]
    return _Samples(vals, vals.size)


def _pinned_hits(p, pins, piece: engine.Piece) -> np.ndarray:
    hits = engine.batch_pinned_tags(p, pins, piece.time_keys, piece.worder)
    return np.count_nonzero(hits, axis=1)


# -- estimation ---------------------------------------------------------------


def threshold_sweep(
    p: Poset,
    taus: Sequence[float],
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    workers: int = 1,
) -> list[Estimate]:
    """One Estimate per threshold, all sharing the same trials.

    Common random numbers: each piece's tag matrix is computed once and
    re-thresholded, so sweep curves are smooth in tau by construction.
    """
    engine.check_sim_cap(p.n)
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ValueError("need at least one threshold")
    for tau in taus:
        if not 0.0 <= tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {tau}")

    def report(total):
        out = []
        for tau, successes in zip(taus, total.tolist()):
            low, high = wilson_interval(successes, trials)
            p_hat = successes / trials
            out.append(Estimate(successes, trials, p_hat, low, high, master_seed, tau))
        return out

    check = partial(_success_counts, p.is_maximal, taus), report
    return _run_checks(p, [check], trials, master_seed, workers)


def estimate_success(
    p: Poset,
    tau: float = TAU_DEFAULT,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo success probability of the threshold strategy."""
    return threshold_sweep(p, [tau], trials, master_seed, workers)[0]


def empirical_greedy_max(
    p: Poset, samples: int, master_seed: int = 0, workers: int = 1
) -> np.ndarray:
    """Per-element counts of being the greedy maximum under random weights.

    Lemma 4's pinned check at t = 1, where every other element arrives
    first: x is tagged there iff it is the greedy maximum.  A non-maximal
    element counts 0.
    """
    engine.check_sim_cap(p.n)
    tops = sorted(p.maximal)

    def report(total):
        counts = np.zeros(p.n, dtype=np.int64)
        counts[tops] = total
        return [counts]

    check = partial(_pinned_hits, p, [(x, 1.0) for x in tops]), report
    return _run_checks(p, [check], samples, master_seed, workers)[0]


# -- verification -------------------------------------------------------------


def _tested(
    statistic: str, observed: float, reference, pval: float, alpha: float, size: int
) -> LemmaReport:
    """A report whose check passes when its p-value is at least alpha."""
    return LemmaReport(statistic, observed, reference, pval, pval >= alpha, size)


def _marginal_check(p: Poset, trials: int, alpha: float) -> tuple:
    engine.check_sim_cap(p.n)
    if trials < p.n * MIN_PER_POSITION:
        raise ValueError(
            f"need trials >= {p.n * MIN_PER_POSITION} for {p.n} positions "
            f"({MIN_PER_POSITION} per position)"
        )

    def report(total):
        marg = np.diagonal(total)
        reports = []
        for k in range(1, p.n + 1):
            hits = int(marg[k - 1])
            ref = 1.0 / k
            pval = pvalues.binom_two_sided(hits, trials, ref)
            reports.append(_tested(f"tag_marginal[k={k}]", hits / trials, ref, pval, alpha, trials))
        return reports

    return _tag_pair_counts, report


def verify_tag_marginals(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int = 1,
) -> list[LemmaReport]:
    """Check that the k-th arrival is tagged with frequency 1/k, per k.

    Two-sided exact binomial test per position; the first position is tagged
    with probability one and serves as a sanity anchor.
    """
    check = _marginal_check(p, trials, alpha)
    return _run_checks(p, [check], trials, master_seed, workers)


def _independence_check(p: Poset, trials: int, alpha: float) -> tuple:
    engine.check_sim_cap(p.n)

    def report(joint):
        marg = np.diagonal(joint)
        reports = []
        for j in range(1, p.n + 1):
            for k in range(j + 1, p.n + 1):
                a, b = int(marg[j - 1]), int(marg[k - 1])
                both = int(joint[j - 1, k - 1])
                name = f"tag_independence[j={j},k={k}]"
                if a in (0, trials) or b in (0, trials):
                    ref = "degenerate: constant indicator"
                    reports.append(LemmaReport(name, 0.0, ref, None, True, trials))
                    continue
                table = [[both, a - both], [b - both, trials - a - b + both]]
                chi2, pval = pvalues.chi2_2x2(np.array(table, dtype=np.int64))
                ref = "chi2(df=1) under independence"
                reports.append(_tested(name, chi2, ref, pval, alpha, trials))
        return reports

    return _tag_pair_counts, report


def verify_tag_independence(
    p: Poset,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int = 1,
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
    workers: int = 1,
) -> LemmaReport:
    """Deep check: all 2^n tag patterns against the exact joint product law.

    Patterns missing the always-tagged first position have expectation zero
    and must not occur; the chi-square runs over the remaining 2^(n-1) cells.
    """
    if p.n > JOINT_CHECK_CAP:
        raise TooLargeError(f"joint check tabulates 2^n patterns; n={p.n} exceeds {JOINT_CHECK_CAP}")

    def report(pattern):
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
        chi2, pval = pvalues.chi2_gof(pattern[possible], prob[possible] * trials)
        ref = f"chi2(df={int(possible.sum()) - 1}) under the product law"
        passed = impossible_hits == 0 and pval >= alpha
        return [LemmaReport("tag_joint", chi2, ref, pval, passed, trials)]

    return _run_checks(p, [(_tag_pattern_counts, report)], trials, master_seed, workers)[0]


def _last_tag_check(p: Poset, t: float, alpha: float) -> tuple:
    engine.check_sim_cap(p.n)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")

    def report(samples):
        # each check binds its own reducer, so this buffer is the report's own
        values = samples.values
        if values.size == 0:
            raise ValueError("no trial had an arrival before t; increase trials")
        values /= t
        values.sort()
        ks, pval = pvalues.ks_uniform_sorted(values)
        size = int(values.size)
        return [_tested(f"last_tag_uniform[t={t!r}]", ks, "uniform[0,1]", pval, alpha, size)]

    return partial(_last_tag_values, t), report


def verify_last_tag_uniform(
    p: Poset,
    t: float = 1.0,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int = 1,
) -> LemmaReport:
    """KS test: the last tag before time t, rescaled by 1/t, is Uniform[0,1].

    Conditioning is on at least one arrival before t (the first arrival is
    always tagged, so the statistic then exists).
    """
    check = _last_tag_check(p, t, alpha)
    return _run_checks(p, [check], trials, master_seed, workers)[0]


def _pinned_check(
    p: Poset, pins: Sequence[tuple[int, float]], trials: int, table: MuTable | None = None
) -> tuple:
    """Lemma 4's check; its report reads every mu_t from table, built here
    once the pins are valid when the caller passes none."""
    engine.check_sim_cap(p.n)
    for x, t in pins:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if not 0 <= x < p.n:
            raise IndexError(f"element {x} out of range for n={p.n}")
        if x not in p.maximal:
            raise NotMaximalError(f"element {x} is not maximal")
    if table is None:
        table = mu_exact(p)

    def report(total):
        reports = []
        for (x, t), hits in zip(pins, total):
            mu = float(table.mu_t(x, Fraction(t)))
            freq = int(hits) / trials
            passed = abs(freq - mu) <= 4.0 * math.sqrt(mu * (1.0 - mu) / trials)
            name = f"tagged_given_arrival[x={x},t={t!r}]"
            reports.append(LemmaReport(name, freq, mu, None, passed, trials))
        return reports

    return partial(_pinned_hits, p, pins), report


def verify_tagged_given_arrival(
    p: Poset,
    x: int,
    t: float,
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    workers: int = 1,
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
    workers: int = 1,
) -> list[LemmaReport]:
    """The checks of the named lemmas (any of LEMMAS), over one pass.

    "2": tag marginals and pairwise independence; "3": last-tag uniformity
    at LAST_TAG_TIMES; "4": pinned-arrival tag frequency against the exact
    mu_t, for every maximal element at PINNED_TIMES; "5": the exact
    mu_t >= mu sweep over MONOTONICITY_GRID.  Every check is validated
    before any chunk is drawn, in that order, and reports come in it.
    Lemmas 4 and 5 read one exact table.
    """
    unknown = set(lemmas) - set(LEMMAS)
    if unknown:
        raise ValueError(f"unknown lemmas {sorted(unknown)}; choose from {LEMMAS}")
    checks = []
    if "2" in lemmas:
        checks.append(_marginal_check(p, trials, alpha))
        checks.append(_independence_check(p, trials, alpha))
    if "3" in lemmas:
        checks += [_last_tag_check(p, t, alpha) for t in LAST_TAG_TIMES]
    table = mu_exact(p) if "4" in lemmas or "5" in lemmas else None
    if "4" in lemmas:
        pins = [(x, t) for x in sorted(p.maximal) for t in PINNED_TIMES]
        checks.append(_pinned_check(p, pins, trials, table))
    reports = _run_checks(p, checks, trials, master_seed, workers)
    if "5" in lemmas:
        mono = check_mu_monotonicity(table, MONOTONICITY_GRID)
        ref = "mu_t(x) >= mu(x) at every grid point"
        violations = float(len(mono.violations))
        reports.append(LemmaReport("mu_monotonicity", violations, ref, None, mono.ok, mono.checks))
    return reports
