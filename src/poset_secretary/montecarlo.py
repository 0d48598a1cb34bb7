"""Monte Carlo estimation and statistical verification of the strategy laws.

Every routine here is a pure function of (poset, parameters, master seed):
trials are drawn in canonical chunks (see engine), tallies are integer
counts, added, and lemma 3's samples go to one slot per trial, so worker
count is purely a speed knob.  Verification checks default to alpha=0.001
per test, with no family-wise control, so a suite of dozens of tests flags
a correct implementation far more often than alpha.

One pass per chunk: each canonical chunk is drawn once, piece by piece
(_tag_chunk, through engine.chunk_tags), and every statistic is a reducer
that reads only the engine.Piece fields it needs, so a pass builds only
those.  Tallies add over the pieces into one per chunk, and the chunks'
tallies add into running totals as they arrive (_fold), so no list of
per-chunk tallies is kept.  Lemma 3 writes each trial's sample into its
own float64 slot (Piece.first is the trial index of a piece's first row)
and tallies only their count; the slots, mapped shared when the check is
built, are written by whichever process draws the chunk, and the report
divides, sorts and tests them in place.  Times pass only as order keys.
Acceptance and the last tag before t read only Piece.tag_keys, so on a
chain they sort nothing and build no tag matrix; the lemma-2 checks, which
count by arrival position, read Piece.arrival_tags.  Lemma 4's pinned
check reads no tag flags, so it runs no tag kernel: engine.batch_pinned_tags
runs one bitmask scan over the piece's series order per pinned time, shared
by every maximal element.
empirical_greedy_max is that check at t = 1: a maximal element pinned after
every other arrival is tagged iff it is the greedy maximum.  Every scan
lives in engine, and this module calls only its public names.  Every
estimate and check is an entry in the one list _run_checks runs: sampled,
a (reducer, report) pair over one pass, or exact, with reducer None.

With workers > 1 the chunks run on forked children, one pipe each
(_run_chunks): child i computes chunks i, i + workers, ... and pickles each
chunk's tallies into its pipe, where it blocks once the pipe's buffer is
full, so it runs ahead of the reader by at most what that buffer holds (a
verify chunk's tallies are under 1 KiB), or by one chunk when a result is
larger than the buffer; the parent computes none and reads the chunks back
in chunk order.  Where os.fork does not exist they run in-process.  Either
way the bytes out are the same.

P-values come from pvalues: the exact two-sided binomial test for each tag
marginal, Pearson's chi-square for pairwise independence, and the exact
one-sample KS test for last-tag uniformity, each bit-identical to SciPy's
own tests but computed from scipy.special alone.  Lemma 3 refuses a KS
sample of fewer than pvalues.KS_MIN_SIZE (141) values.  The joint pattern
law needs none: verify_tag_joint counts it exactly over all n! arrival
orders of one weight row, for n <= JOINT_CHECK_CAP, as an exact check.

Verified laws, all at desk scale:
  * the k-th arrival is tagged with probability exactly 1/k, independently
    across positions and regardless of the order structure;
  * the last tag before time t lands uniformly on [0, t];
  * pinning a maximal element's arrival at t makes its tag probability equal
    the exact value mu_t(x);
  * the threshold rule accepts a maximal element with probability >= 1/e
    (test_criterion_01_success_floor_across_suite; not a verify check yet).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, ClassVar, Collection, Iterator, Sequence

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
JOINT_CHECK_CAP = 9  # verify_tag_joint tags one row per arrival order: n! rows
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
    confidence: ClassVar[float] = CONFIDENCE_DEFAULT  # wilson_interval's level, not a knob

    def __post_init__(self) -> None:
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("interval must satisfy 0 <= low <= p_hat <= high <= 1")
        if self.p_hat != self.successes / self.trials:
            raise ValueError("p_hat must equal successes / trials")


@dataclass(frozen=True)
class LemmaReport:
    """One verification check: what was measured, against what, and verdict.

    A p_value of None marks an exact verdict (mu_monotonicity, tag_joint),
    lemma 4's four-standard-error rule, or a degenerate pair."""

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


def __getattr__(name: str):
    # No code here uses an executor.  perfbench's tracer still reads
    # montecarlo.ProcessPoolExecutor to wrap it, so the name resolves on
    # demand, and no command pays for importing concurrent.futures.process
    # and multiprocessing.  Goes when the tracer stops reading it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- chunked drivers ---------------------------------------------------------


def _run_chunks(task: Callable, trials: int, workers: int) -> Iterator:
    """Yield a per-chunk tally function's results over the canonical chunk layout.

    Results come in chunk order, each as soon as its chunk is done, so every
    total is partition-independent.  With one worker, or where os.fork does
    not exist, the chunks run in this process; otherwise on forked children
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
    c mod children.  A child blocks on its pipe once the pipe's buffer is
    full, so it runs ahead of the reader by at most a buffer's worth of
    results, or one chunk when a result is larger than the buffer.  A task's
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


def _fold(tallies: Iterator[Sequence]) -> list:
    """Add a stream of tally lists into running totals, position by position.

    Every tally is an integer array: the first list starts the totals, and
    each later one adds into them in place.
    """
    totals = list(next(tallies))
    for tally in tallies:
        for total, more in zip(totals, tally):
            total += more
    return totals


def _tag_chunk(
    p: Poset, reducers: tuple[Callable, ...], master_seed: int, chunk: int, rows: int
) -> list:
    """Draw and tag one canonical chunk; one tally per reducer, added over its pieces."""
    pieces = engine.chunk_tags(p, master_seed, chunk, rows)
    return _fold([reduce(piece) for reduce in reducers] for piece in pieces)


def _run_checks(
    p: Poset, checks: Sequence[tuple], trials: int, master_seed: int, workers: int
) -> list:
    """Every check over at most one pass of the canonical chunks; reports in check order.

    A check is a (reducer, report) pair, built only after its parameters are
    validated.  Sampled: the reducer runs on every piece, its chunk tallies
    add into a running total, and report turns that total into a list of
    results; checks sharing a reducer share its one total.  Exact: reducer
    None, report called with None.  The pass is drawn only for a sampled
    check; seed, workers and trials are validated either way.
    """
    engine.check_seed(master_seed)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_trials(trials)
    reducers = tuple(dict.fromkeys(reduce for reduce, _ in checks if reduce is not None))
    totals = {None: None}
    if reducers:
        chunks = _run_chunks(partial(_tag_chunk, p, reducers, master_seed), trials, workers)
        totals.update(zip(reducers, _fold(chunks)))
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


def _last_tag_slots(t, slots: np.ndarray, piece: engine.Piece) -> np.ndarray:
    vals = engine.batch_last_tag_time(piece.tag_keys, t)
    slots[piece.first : piece.first + vals.size] = vals  # NaN where no arrival precedes t
    return np.array(np.count_nonzero(~np.isnan(vals)), dtype=np.int64)


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


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _tested(
    statistic: str, observed: float, reference, pval: float, alpha: float, size: int
) -> LemmaReport:
    """A report whose check passes when its p-value is at least alpha."""
    return LemmaReport(statistic, observed, reference, pval, pval >= alpha, size)


def _marginal_check(p: Poset, trials: int, alpha: float) -> tuple:
    engine.check_sim_cap(p.n)
    _check_alpha(alpha)
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
    _check_alpha(alpha)

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


def _joint_report(p: Poset, master_seed: int, _) -> list[LemmaReport]:
    rows = math.factorial(p.n)
    perms = itertools.chain.from_iterable(itertools.permutations(range(p.n)))
    orders = np.fromiter(perms, dtype=np.uint8, count=rows * p.n).reshape(rows, p.n)
    times = np.empty(orders.shape)
    np.put_along_axis(times, orders, np.arange(p.n) / p.n, axis=1)  # arrival rank r at r/n
    _, weights = engine.chunk_uniforms(p.n, master_seed, 0, 1)
    _, tagged = engine.batch_tag_matrix(p, times, np.broadcast_to(weights, times.shape))
    codes = np.take_along_axis(tagged, orders, axis=1) @ (1 << np.arange(p.n))
    bits = (np.arange(1 << p.n)[:, None] >> np.arange(p.n)) & 1
    want = np.where(bits, 1, np.arange(p.n)).prod(axis=1)  # prod_k (1 or k - 1)
    misses = int(np.count_nonzero(np.bincount(codes, minlength=1 << p.n) != want))
    ref = "n! * prod_k (1/k or 1 - 1/k) per pattern"
    return [LemmaReport("tag_joint", float(misses), ref, None, misses == 0, rows)]


def verify_tag_joint(p: Poset, master_seed: int = 0) -> LemmaReport:
    """Lemma 2 exactly: every tag pattern over all n! arrival orders.

    Given the set of its first k arrivals, the k-th arrival is tagged in 1
    of the k equally likely orders of that set, whatever the weights.  So
    with one weight row, trial 0 of master_seed's stream, and each arrival
    order once, the pattern of tags by arrival position (bit k-1 for the
    k-th arrival) occurs exactly n! * prod_k (1/k or 1 - 1/k) times.
    observed counts the patterns that miss that count.
    """
    if p.n > JOINT_CHECK_CAP:
        raise TooLargeError(f"joint check enumerates n! arrival orders; n={p.n} exceeds {JOINT_CHECK_CAP}")
    return _run_checks(p, [(None, partial(_joint_report, p, master_seed))], 0, master_seed, 1)[0]


def _last_tag_check(p: Poset, t: float, trials: int, alpha: float) -> tuple:
    """Lemma 3's check at t, with its slots: one float64 per trial, mapped here.

    The slots lie in an anonymous shared mapping, so a forked child writes
    its chunks' values into the pages this process reads, and no sample
    travels through a pipe.  Each slot is written by one chunk, before that
    chunk's tally is sent, and the report reads them after every tally has
    arrived.
    """
    import mmap

    engine.check_sim_cap(p.n)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    _check_alpha(alpha)
    _check_trials(trials)
    try:  # mmap refuses a length of 0; the pass refuses zero trials
        slots = np.frombuffer(mmap.mmap(-1, 8 * max(trials, 1)))[:trials]
    except (OSError, OverflowError, ValueError):
        raise ValueError(f"lemma 3 keeps its samples at t={t!r} in {8 * trials} bytes for "
                         f"{trials} trials, more than can be allocated: decrease trials") from None

    def report(count):
        # numpy sorts NaN last, so the first count slots are the sorted sample
        size = int(count)
        if size < pvalues.KS_MIN_SIZE:
            raise ValueError(f"{size} trials had an arrival before t={t!r}; the KS test "
                             f"needs {pvalues.KS_MIN_SIZE}: increase trials")
        np.divide(slots, t, out=slots)
        slots.sort()
        ks, pval = pvalues.ks_uniform_sorted(slots[:size])
        return [_tested(f"last_tag_uniform[t={t!r}]", ks, "uniform[0,1]", pval, alpha, size)]

    return partial(_last_tag_slots, t, slots), report


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
    always tagged, so the statistic then exists).  The samples take 8 bytes
    per trial, mapped before the pass: ValueError, naming the bytes, when
    they cannot be.  Raises ValueError, after the pass, when fewer than
    pvalues.KS_MIN_SIZE trials have one.
    """
    check = _last_tag_check(p, t, trials, alpha)
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


def _monotonicity_report(table: MuTable, _) -> list[LemmaReport]:
    mono = check_mu_monotonicity(table, MONOTONICITY_GRID)
    ref = "mu_t(x) >= mu(x) at every grid point"
    return [LemmaReport("mu_monotonicity", float(len(mono.violations)), ref, None, mono.ok, mono.checks)]


def verify_lemmas(
    p: Poset,
    lemmas: str | Collection[str],
    trials: int = TRIALS_DEFAULT,
    master_seed: int = 0,
    alpha: float = ALPHA_DEFAULT,
    workers: int = 1,
) -> list[LemmaReport]:
    """The checks of the named lemmas (any of LEMMAS), over one pass.

    "2": tag marginals and pairwise independence; "3": last-tag uniformity
    at LAST_TAG_TIMES; "4": pinned-arrival tag frequency against the exact
    mu_t, for every maximal element at PINNED_TIMES; "5": the exact
    mu_t >= mu sweep over MONOTONICITY_GRID, an exact check.  A bare string
    names one lemma, "all" every one.  Alpha and every check are validated
    before any chunk is drawn, and reports come in check order; lemma 3
    maps its sample slots before the pass, and refuses, after it, fewer
    than pvalues.KS_MIN_SIZE samples at a t.
    Lemma 4's reports and lemma 5's sweep read one exact table.
    """
    if isinstance(lemmas, str):
        lemmas = LEMMAS if lemmas == "all" else (lemmas,)
    unknown = set(lemmas) - set(LEMMAS)
    if unknown:
        raise ValueError(f"unknown lemmas {sorted(unknown)}; choose from {LEMMAS}")
    _check_alpha(alpha)
    checks = []
    if "2" in lemmas:
        checks.append(_marginal_check(p, trials, alpha))
        checks.append(_independence_check(p, trials, alpha))
    if "3" in lemmas:
        checks += [_last_tag_check(p, t, trials, alpha) for t in LAST_TAG_TIMES]
    table = mu_exact(p) if "4" in lemmas or "5" in lemmas else None
    if "4" in lemmas:
        pins = [(x, t) for x in sorted(p.maximal) for t in PINNED_TIMES]
        checks.append(_pinned_check(p, pins, trials, table))
    if "5" in lemmas:
        checks.append((None, partial(_monotonicity_report, table)))
    return _run_checks(p, checks, trials, master_seed, workers)
