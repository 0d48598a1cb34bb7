"""Vectorized trial batches and the reproducible parallel RNG layout.

Randomness contract: trial i is row (i mod CHUNK_TRIALS) of canonical chunk
(i div CHUNK_TRIALS), and chunk c of a run with master seed s is the Philox
stream keyed by the two 64-bit words (s, c).  Each row holds the trial's 2n
uniforms: arrival times first, then weights -- exactly the draw order of
simulate.sample_trial.  Chunk boundaries are fixed constants, so every
reported number is a pure function of (poset, parameters, master seed) and
workers only decide who computes which chunk, never what comes out.

The tag matrix gives the same flags as simulate.tag_sequence without running
its greedy scan once per arrival prefix.  Because the scan only climbs,
arrival x is tagged iff both hold:

  (a) the greedy maximum of the arrivals that are earlier *and* lighter than
      x lies below x, or there is no such arrival;
  (b) no earlier arrival lies above x.

Elements are bits of the smallest unsigned dtype that holds n of them, which
caps simulation at SIM_CAP elements.  (b) is a prefix-OR of element bits
along the arrival order, ANDed with x's up-mask.  For (a), column r stands
for the r-th lightest element and holds the up-mask of its current greedy
element, all-ones while its set is empty.  Weight step w feeds element e_w
to the columns r > w it arrived before, and a column whose mask has e_w's
bit jumps to e_w's up-mask: a triangle of n(n-1)/2 contiguous elementwise
updates per row.  Column w is final once step w starts, so its (a) flag is
whether its mask holds e_w's own bit.  Rows are independent and are worked
in sub-batches, which bounds the temporaries without changing any result.
Equivalence with the per-trial reference is pinned by tests.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLargeError
from .greedy import greedy_scan
from .posets import Poset
from .simulate import Trial

__all__ = [
    "CHUNK_TRIALS",
    "SIM_CAP",
    "check_sim_cap",
    "chunk_layout",
    "chunk_uniforms",
    "trial_for_index",
    "batch_tag_matrix",
    "batch_accept",
    "batch_last_tag_time",
    "batch_greedy_maximum",
]

# Canonical batch size. Fixed: changing it would change which trial sees
# which uniforms, so it is a constant of the format, not a tuning knob.
CHUNK_TRIALS = 1 << 15

# Largest poset the tag kernel simulates: one bit per element in a uint64.
SIM_CAP = 64

# Rows per tag-kernel pass. Rows are independent, so this bounds the
# temporaries and never changes a result.
_SUB_BATCH = 2048

_MASK64 = (1 << 64) - 1


def _philox(master_seed: int, chunk_index: int) -> np.random.Generator:
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must fit in 64 bits, got {master_seed}")
    key = np.array([master_seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_layout(trials: int) -> list[tuple[int, int]]:
    """(chunk_index, rows) pairs covering the first `trials` trials."""
    out = []
    full, rest = divmod(trials, CHUNK_TRIALS)
    for c in range(full):
        out.append((c, CHUNK_TRIALS))
    if rest:
        out.append((full, rest))
    return out


def chunk_uniforms(
    n: int, master_seed: int, chunk_index: int, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times and weights for `rows` trials of one canonical chunk.

    Row-major generation means row i never depends on how many rows were
    requested, so partial chunks agree with full ones.
    """
    mat = _philox(master_seed, chunk_index).random((rows, 2 * n))
    return mat[:, :n], mat[:, n:]


def trial_for_index(n: int, master_seed: int, trial_index: int) -> Trial:
    """The exact Trial the batched harness uses for one trial index."""
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    chunk, row = divmod(trial_index, CHUNK_TRIALS)
    times, weights = chunk_uniforms(n, master_seed, chunk, row + 1)
    return Trial(times[row], weights[row])


def _stable_argsort(a: np.ndarray) -> np.ndarray:
    # ties broken by index, matching the per-trial lexsort
    return np.argsort(a, axis=1, kind="stable")


def check_sim_cap(n: int) -> None:
    """Raise TooLargeError when an n-element poset is over the simulation cap."""
    if n > SIM_CAP:
        raise TooLargeError(
            f"simulation cap is n <= {SIM_CAP} (one bit per element in the tag kernel); got n={n}"
        )


def _mask_dtype(n: int) -> type:
    """Smallest unsigned dtype with at least n bits (n <= SIM_CAP)."""
    return next(d for d in (np.uint8, np.uint16, np.uint32, np.uint64) if n <= np.iinfo(d).bits)


def batch_tag_matrix(
    p: Poset, times: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival order, sorted times, and the (trials, n) tag-flag matrix.

    tagged[b, k] is True iff the (k+1)-th arrival of trial b is the greedy
    maximum of the order induced on the first k+1 arrivals.  Raises
    TooLargeError when p.n exceeds SIM_CAP.
    """
    check_sim_cap(p.n)
    n = p.n
    B = times.shape[0]
    dtype = _mask_dtype(n)
    bits = np.left_shift(dtype(1), np.arange(n, dtype=dtype))
    up = np.array(p.above_masks, dtype=dtype)
    aorder = np.empty((B, n), dtype=np.intp)
    tsorted = np.empty((B, n), dtype=times.dtype)
    tagged = np.empty((B, n), dtype=bool)
    for lo in range(0, B, _SUB_BATCH):
        rows = slice(lo, lo + _SUB_BATCH)
        _tag_sub_batch(bits, up, times[rows], weights[rows],
                       aorder[rows], tsorted[rows], tagged[rows])
    return aorder, tsorted, tagged


def _tag_sub_batch(
    bits: np.ndarray,
    up: np.ndarray,
    times: np.ndarray,
    weights: np.ndarray,
    aorder: np.ndarray,
    tsorted: np.ndarray,
    tagged: np.ndarray,
) -> None:
    """Fill one sub-batch of batch_tag_matrix's outputs in place.

    Work arrays are (n, rows), so each step's slice is contiguous.
    """
    b, n = times.shape
    rows = np.arange(b)
    ao = _stable_argsort(times)
    wo = np.ascontiguousarray(_stable_argsort(weights).T)  # wo[w]: w-th lightest
    aorder[...] = ao
    tsorted[...] = np.take_along_axis(times, ao, axis=1)
    pos = np.empty((b, n), dtype=np.uint8)  # arrival position per element
    pos[rows[:, None], ao] = np.arange(n, dtype=np.uint8)
    wpos = pos[rows, wo]  # wpos[w]: arrival position of the w-th lightest

    # (a): greedy state per weight-rank column, a triangle of updates
    bitw = bits[wo]
    upw = up[wo]
    state = np.full((n, b), np.iinfo(bits.dtype).max, dtype=bits.dtype)
    scratch = np.empty((n - 1, b), dtype=bits.dtype)
    jump = np.empty((n - 1, b), dtype=bool)
    earlier = np.empty((n - 1, b), dtype=bool)
    for w in range(n - 1):
        k = n - 1 - w
        cols = state[w + 1:]
        hit = np.bitwise_and(cols, bitw[w], out=scratch[:k])
        go = np.not_equal(hit, 0, out=jump[:k])
        go &= np.less(wpos[w], wpos[w + 1:], out=earlier[:k])
        # cols = where(go, up(e_w), cols), branch-free: a masked copy is
        # several times slower when jumps are dense, as on chains
        diff = np.bitwise_xor(cols, upw[w], out=hit)
        diff *= go
        cols ^= diff
    state &= bitw
    tag = np.empty((n, b), dtype=bool)  # arrival-major
    tag[wpos, rows] = state != 0

    # (b): nothing that arrived earlier (x itself is not above x) lies above x
    ao_t = np.ascontiguousarray(ao.T)
    seen = np.bitwise_or.accumulate(bits[ao_t], axis=0)
    seen &= up[ao_t]
    tag &= seen == 0
    tagged[...] = tag.T


def batch_accept(
    aorder: np.ndarray,
    tsorted: np.ndarray,
    tagged: np.ndarray,
    tau: float,
    is_maximal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First tagged arrival strictly after tau; (accepted or -1, success)."""
    ok = tagged & (tsorted > tau)
    has = ok.any(axis=1)
    first = ok.argmax(axis=1)
    element = np.take_along_axis(aorder, first[:, None], axis=1)[:, 0]
    accepted = np.where(has, element, -1)
    success = has & is_maximal[np.where(has, element, 0)]
    return accepted, success


def batch_last_tag_time(tsorted: np.ndarray, tagged: np.ndarray, t: float) -> np.ndarray:
    """Arrival time of the last tag strictly before t; NaN when no arrival.

    The first arrival is always tagged, so the value exists exactly when
    some element arrives before t.
    """
    m = tagged & (tsorted < t)
    has = m.any(axis=1)
    n = tsorted.shape[1]
    last = n - 1 - np.argmax(m[:, ::-1], axis=1)
    out = np.take_along_axis(tsorted, last[:, None], axis=1)[:, 0]
    out[~has] = np.nan
    return out


def batch_greedy_maximum(lt: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Greedy maximum of the full poset for a batch of weight vectors."""
    return greedy_scan(lt, _stable_argsort(weights))
