"""Vectorized trial batches and the reproducible parallel RNG layout.

Randomness contract: trial i is row (i mod CHUNK_TRIALS) of canonical chunk
(i div CHUNK_TRIALS), and chunk c of a run with master seed s is the Philox
stream keyed by the two 64-bit words (s, c).  Each row holds the trial's 2n
uniforms: arrival times first, then weights -- exactly the draw order of
simulate.sample_trial.  Each uniform is (word >> 11) * 2^-53 of the stream's
next raw word, as Generator.random makes it.  Chunk boundaries are fixed
constants, so every reported number is a pure function of (poset,
parameters, master seed) and workers only decide who computes which chunk,
never what comes out.  A chunk may be drawn in consecutive pieces of rows:
the stream continues where the last piece ended, so the pieces are
bit-identical to one whole-chunk draw.  chunk_tags yields a chunk in such
pieces of _SUB_BATCH rows, each a Piece that holds only its raw words: its
order keys, uint8 arrival and series orders, bool tag matrix and tag keys
are built on first read, so a pass builds only what it reads, and nothing
chunk-sized.  Its times are its order keys alone.

The tag matrix gives the same flags as simulate.tag_sequence without running
its greedy scan once per arrival prefix.  It is element-major: tagged[b, x]
is x's flag when it arrives in trial b, so nothing downstream needs the
arrival order of all n elements (the strategy only takes the earliest
tagged element after tau).  A trial's tags depend only on its arrival order
and its weight order.  Because the scan only climbs, x is tagged iff both
hold:

  (a) the greedy maximum of the arrivals that are earlier *and* lighter than
      x lies below x, or there is no such arrival;
  (b) no earlier arrival lies above x.

Series rule: (a) needs checking only inside a block.  The poset is the
ordinal sum of its series parts (Poset.series_parts, bottom to top): every
element of a part lies below every element of each later part.  A part of
one element is a post; one of two or more is a block.  Given (b), no earlier
arrival lies in a part above x's own part, so the earlier and lighter
arrivals lie in x's part or below it.  Their greedy chain climbs, so once it
takes an element of x's part it stays there, and it takes the first one it
meets, which lies above all it took before.  So when some earlier and
lighter arrival shares x's part, the chain's maximum is the greedy maximum
of those arrivals alone; when none does, it lies below x or does not exist,
and (a) holds.  A post shares its part with nothing, so it passes (a)
outright: on a chain every element is a post, and a chain's tags are (b)
alone.

Key rule: a Piece orders elements by the keys (word >> 11) << 6 | x,
unique in a row and ascending as the stable order does (by value, then by
index), so one uint64 sort gives the arrival order and one more gives the
weight order, and no tie needs a check.  Weight keys also carry the
element's series rank in their top 5 bits: blocks 0..q-1 bottom to top and
posts 31 (q <= 32, as each block has two elements or more, and q = 32 leaves
no post).  The one weight sort so gives the series order: each block
lightest first, bottom to top, then the posts lightest first.  Equal ranks
leave every key order unchanged, so a poset of one series part needs no
case of its own.  batch_tag_matrix takes any floats: it uses the stable
argsort for the arrival order and one stable lexsort by (rank, weight) for
the series order.

Post rule: on a poset with no block, every series part is a post, so the
poset is a chain e_0 < e_1 < ... < e_{n-1} (in any labelling), and its tags
need no sort.  Each e_k passes (a) (series rule), and the elements above
e_k are e_{k+1}, ..., e_{n-1}, so by (b) e_k is tagged iff its time key is
below the keys of all of those (a smaller key is an earlier arrival, and
keys in a row are unique).  Let r_k be the least key of e_k, ..., e_{n-1}:
the running minimum from the top down, one np.minimum per element.  Then
e_k is tagged iff its key equals r_k.  And every r_k is a tagged key: r_k
is the key of some e_j with j >= k, and r_j, a minimum over fewer elements
that include e_j, lies between r_k and e_j's key, which are equal; so e_j
is tagged.  The values of r are therefore exactly the tagged keys, some
repeated.  A Piece of a chain takes r as its tag keys, r_k in row e_k
(rows are indexed by element, as a block poset's are), and reads its tag
matrix off r with one compare: no arrival sort and no seen masks.

Accept rule: the strategy takes the first tagged arrival strictly after
tau, and batch_accept finds it from tag keys alone.  A time k * 2^-53 lies
above tau iff k > floor(tau * 2^53) (tau * 2^53 is exact: a power-of-two
scaling), that is iff its key lies above _tau_key(tau) = floor(tau * 2^53)
<< 6 | 63.  The least tag key above that is the first such arrival, ties
going to the lowest index as in the stable order, and its low 6 bits name
the element.  Subtracting _tau_key(tau) + 1 wraps every key at or below it
past every key above it and past _NO_TAG (all-ones, far above every time
key), so one min over each trial's tag keys finds it.  Lemma 3 reads the
other direction: k * 2^-53 lies below t iff k < ceil(t * 2^53), so the
last tag before t is the greatest tag key below ceil(t * 2^53) << 6.
Subtracting every key from one less than that bound wraps the keys at or
above it, _NO_TAG included, past the rest, so batch_last_tag_time finds
it with one min too, and reads its time back as the drawn float.

Elements are bits of the smallest unsigned dtype that holds n of them, which
caps simulation at SIM_CAP elements.  seen[x] is the mask of the elements
that arrived no later than x: one prefix-OR of bits along the arrival order,
scattered back to element order.  (b) is seen[x] & up(x) == 0.  For (a),
column r stands for the element e_r at position r of the series order and
holds seen[e_r] & up(g), g its current greedy element; it starts at
seen[e_r], as no element is taken yet.  Step w feeds element e_w to the
later columns r of its own block, and a column that holds e_w's bit (so e_w
arrived before e_r and lies above g) jumps: it becomes its own AND up(e_w),
which is seen[e_r] & up(e_w), because up(e_w) is a subset of up(g) whenever
e_w lies above g.  So a column only shrinks, and no arrival needs a compare:
every bit left in it arrived earlier.  That is a triangle of k(k-1)/2
contiguous elementwise updates per row for each block of k elements, in
place of n(n-1)/2 for the whole poset, and posts take no column.  Column w
is final once step w starts, so x = e_w passes (a) iff its mask holds x's
own bit; OR-ing those bits over the columns, and the posts' bits, gives a
mask of the elements that pass, with no scatter back to element order.
Rows are independent and are worked _SUB_BATCH at a time, which bounds the
temporaries without changing any result.  Equivalence with the per-trial
reference is pinned by tests.

The bitmask scan (_passed_mask) is the other greedy scan.  The triangle
gives each column its own member set, the arrivals its element has seen;
the scan has one member set, so batch_pinned_tags runs it once for every
maximal element pinned at one time t (lemma 4), which the triangle cannot
serve.  At t = 1 every element is a member and the scan walks the greedy
chain itself, so a maximal element pinned there is tagged iff it is the
greedy maximum: batch_greedy_maximum is that pin, every time 0.
"""

from __future__ import annotations

import ctypes
import math
from functools import cache, cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import TooLargeError
from .posets import Poset

__all__ = [
    "CHUNK_TRIALS",
    "SIM_CAP",
    "check_seed",
    "check_sim_cap",
    "chunk_layout",
    "chunk_uniforms",
    "Piece",
    "chunk_tags",
    "batch_tag_matrix",
    "batch_accept",
    "batch_last_tag_time",
    "batch_pinned_tags",
    "batch_greedy_maximum",
]

# Canonical batch size. Fixed: changing it would change which trial sees
# which uniforms, so it is a constant of the format, not a tuning knob.
CHUNK_TRIALS = 1 << 15

# Largest poset the tag kernel simulates: one bit per element in a uint64.
SIM_CAP = 64

# Rows per piece of a chunk and per tag-kernel pass. Rows are independent,
# so this bounds the temporaries and never changes a result.
_SUB_BATCH = 2048

# Order keys hold a uniform's 53 bits above the element index, and weight
# keys hold the element's series rank above both: blocks 0..q-1 bottom to
# top, posts _POST_RANK.  A block has two or more elements, so q <= SIM_CAP/2,
# and q reaches 2^_RANK_BITS only when there is no post.
_INDEX_BITS = 6
_RANK_BITS = 5
_POST_RANK = (1 << _RANK_BITS) - 1
_INDEX_MASK = (1 << _INDEX_BITS) - 1
assert SIM_CAP <= 1 << _INDEX_BITS and SIM_CAP // 2 <= 1 << _RANK_BITS
assert 53 + _INDEX_BITS + _RANK_BITS <= 64

# A tag key where an element is not tagged: above every time key.
_NO_TAG = np.uint64(np.iinfo(np.uint64).max)


def check_seed(master_seed: int) -> None:
    """Raise ValueError unless master_seed fits the Philox key's 64-bit word."""
    if not 0 <= master_seed < 1 << 64:
        raise ValueError(f"master seed must fit in 64 bits, got {master_seed}")


def _philox(master_seed: int, chunk_index: int) -> np.random.Generator:
    check_seed(master_seed)
    key = np.array([master_seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_layout(trials: int) -> Iterator[tuple[int, int]]:
    """(chunk_index, rows) pairs covering the first `trials` trials, lazily, in chunk order."""
    full, rest = divmod(trials, CHUNK_TRIALS)
    for c in range(full):
        yield c, CHUNK_TRIALS
    if rest:
        yield full, rest


def chunk_uniforms(
    n: int, master_seed: int, chunk_index: int, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times and weights for `rows` trials of one canonical chunk.

    Row-major generation means row i never depends on how many rows were
    requested, so partial chunks agree with full ones.
    """
    mat = _philox(master_seed, chunk_index).random((rows, 2 * n))
    return mat[:, :n], mat[:, n:]


def _key_order(keys: np.ndarray) -> np.ndarray:
    """Each row's elements (uint8) in ascending key order, i.e. the stable order."""
    order = np.sort(keys, axis=1).astype(np.uint8)
    order &= _INDEX_MASK
    return order


def _chunk_pieces(n: int, master_seed: int, chunk_index: int, rows: int):
    """Yield one canonical chunk's raw words, _SUB_BATCH rows at a time, in row order.

    A piece's words (m, 2n) hold each uniform's 53 bits, already shifted
    right by 11: the same rows' times, then weights, of chunk_uniforms,
    each being its word * 2^-53.
    """
    bitgen = _philox(master_seed, chunk_index).bit_generator
    for lo in range(0, rows, _SUB_BATCH):
        words = bitgen.random_raw((min(_SUB_BATCH, rows - lo), 2 * n))
        words >>= 11
        yield words


def _stable_argsort(a: np.ndarray) -> np.ndarray:
    # ties broken by index, matching the per-trial lexsort
    return np.argsort(a, axis=1, kind="stable")


def check_sim_cap(n: int) -> None:
    """Raise TooLargeError when an n-element poset is over every command's size cap."""
    if n > SIM_CAP:
        raise TooLargeError(
            f"size cap is n <= {SIM_CAP} (one bit per element in the tag kernel); got n={n}"
        )


def _mask_dtype(n: int) -> type:
    """Smallest unsigned dtype with at least n bits (n <= SIM_CAP)."""
    return next(d for d in (np.uint8, np.uint16, np.uint32, np.uint64) if n <= np.iinfo(d).bits)


def _kernel_tables(
    p: Poset,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...], np.integer]:
    """(element bits, up-masks, blocks, posts) of p, in p's mask dtype.

    Up-mask i has bit j set iff i < j.  blocks lists each block's (start,
    stop) positions in the series order, bottom to top; the posts fill the
    positions after the last block, and posts is their mask.
    """
    check_sim_cap(p.n)
    dtype = _mask_dtype(p.n)
    bits = np.left_shift(dtype(1), np.arange(p.n, dtype=dtype))
    stops = np.cumsum([len(part) for part in p.series_parts if len(part) > 1]).tolist()
    blocks = tuple(zip([0, *stops], stops))
    posts = dtype(sum(1 << part[0] for part in p.series_parts if len(part) == 1))
    return bits, np.bitwise_or.reduce(np.where(p.lt, bits, dtype(0)), axis=1), blocks, posts


def _series_ranks(p: Poset) -> np.ndarray:
    """Each element's series rank, shifted into the weight keys' top bits."""
    ranks = np.full(p.n, _POST_RANK, dtype=np.uint64)
    for rank, block in enumerate(part for part in p.series_parts if len(part) > 1):
        ranks[list(block)] = rank
    return ranks << np.uint64(53 + _INDEX_BITS)


def _columns(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, n) order as (n, rows), and where each entry sits in element order.

    Row k of both holds every trial's k-th element: its index, and its flat
    position in a (rows, n) element-major array a, so a.take(at) reads a in
    the order's layout with one gather, and a.reshape(-1)[at] = v writes v
    back.
    """
    rows, n = order.shape
    order = np.ascontiguousarray(order.T)
    return order, order + np.arange(0, rows * n, n)


def batch_tag_matrix(
    p: Poset, times: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Series order and the (trials, n) element-major tag matrix.

    worder[b] (uint8) lists row b's elements in the series order: the
    blocks bottom to top, then the posts, each lightest first with ties
    broken by index.  tagged[b, x] is True iff element x, when it arrives in
    trial b, is the greedy maximum of the order induced on everything
    arrived so far.  Raises TooLargeError when p.n exceeds SIM_CAP.
    """
    tables = _kernel_tables(p)
    ranks = np.broadcast_to(_series_ranks(p), weights.shape)
    worder = np.lexsort((weights, ranks)).astype(np.uint8)  # stable; n <= SIM_CAP
    tagged = np.empty(times.shape, dtype=bool)
    for lo in range(0, times.shape[0], _SUB_BATCH):
        rows = slice(lo, lo + _SUB_BATCH)
        tagged[rows] = _tag_sub_batch(*tables, _stable_argsort(times[rows]), worder[rows])
    return worder, tagged


@cache
def _keep_freed_heap() -> None:
    """Pin glibc's mmap and trim thresholds where its own dynamic rule tops out.

    The rule trims the heap once twice the largest mmapped block freed lies
    free at its top.  A piece frees more (at n = 64, 6 MiB against a 2-MiB
    largest block), so unpinned, each piece hands its pages back and the
    next faults them in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt in this C library
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at the rule's 64-bit ceiling
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice that, as the rule sets it


class Piece:
    """One piece of a canonical chunk, its fields built on first read and kept.

    keys, uint64 (m, 2n), are the order keys of the times, then the weights,
    made in place from the piece's raw words; time_keys are the first n
    columns.  aorder and worder, uint8 (m, n), are each row's stable
    arrival order and series order; tagged, bool (m, n), is the
    element-major tag matrix; arrival_tags, bool (n, m), is tagged in
    arrival order, row k holding every trial's k-th arrival; tag_keys,
    uint64 (n, m), holds x's time key in row x where x is tagged and
    _NO_TAG elsewhere.  On a chain tag_keys is the post rule's running
    minimum, each column the same keys, some repeated, and tagged is read
    from it, so neither sorts.
    """

    def __init__(self, tables: tuple, tail: np.ndarray, chain: np.ndarray | None, words: np.ndarray):
        self._tables = tables
        self._tail = tail  # each key's low bits: the element's index, a weight's series rank
        self._chain = chain  # a chain's elements, bottom to top
        self._words = words

    @cached_property
    def keys(self) -> np.ndarray:
        keys = self._words  # in place: the raw words are read only here
        keys <<= _INDEX_BITS
        keys |= self._tail
        return keys

    @property
    def time_keys(self) -> np.ndarray:
        return self.keys[:, :len(self._tail) // 2]

    @cached_property
    def aorder(self) -> np.ndarray:
        return _key_order(self.time_keys)

    @cached_property
    def worder(self) -> np.ndarray:
        return _key_order(self.keys[:, len(self._tail) // 2:])

    @cached_property
    def tagged(self) -> np.ndarray:
        if self._chain is None:
            return _tag_sub_batch(*self._tables, self.aorder, self.worder)
        # post rule: x is tagged iff its key is the running minimum at x
        tagged = np.empty(self.time_keys.shape, dtype=bool)
        np.equal(self.time_keys.T, self.tag_keys, out=tagged.T)
        return tagged

    @cached_property
    def tag_keys(self) -> np.ndarray:
        if self._chain is not None:
            return _running_minimum(self.time_keys, self._chain)
        tag_keys = np.empty(self.tagged.shape, dtype=np.int64)
        np.subtract(self.tagged.view(np.int8), 1, out=tag_keys)  # 0 where tagged, else all-ones
        tag_keys = tag_keys.view(np.uint64)
        tag_keys |= self.time_keys
        # built element-major, then transposed once: at n = 64 about twice as
        # fast as OR-ing the transposed time keys into an (n, m) array
        return np.ascontiguousarray(tag_keys.T)

    @cached_property
    def arrival_tags(self) -> np.ndarray:
        # one flat take, half the time of take_along_axis
        return self.tagged.take(_columns(self.aorder)[1])


def chunk_tags(p: Poset, master_seed: int, chunk_index: int, rows: int) -> Iterator[Piece]:
    """Yield one canonical chunk as Pieces of at most _SUB_BATCH rows, in row order.

    Stacked, the pieces' time keys are the order keys of chunk_uniforms'
    times, and their aorder, worder and tagged are those times' stable
    arrival order and batch_tag_matrix's output.  Raises TooLargeError when
    p.n exceeds SIM_CAP at the call, before anything is drawn.
    """
    tables = _kernel_tables(p)
    _keep_freed_heap()
    tail = np.tile(np.arange(p.n, dtype=np.uint64), 2)
    tail[p.n:] |= _series_ranks(p)
    chain = None
    if not tables[2]:  # no block: every series part is a post
        chain = np.array([part[0] for part in p.series_parts])
    pieces = _chunk_pieces(p.n, master_seed, chunk_index, rows)
    return (Piece(tables, tail, chain, words) for words in pieces)


def _running_minimum(time_keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """(n, m) running minimum of a chain's (m, n) time keys, from the top down.

    order lists the chain's elements bottom to top; row x holds each
    trial's least key over x and all above it, the post rule's tag keys.
    """
    run = np.empty(time_keys.shape[::-1], dtype=np.uint64)
    above = run[order[-1]]
    above[:] = time_keys[:, order[-1]]
    for x in order[-2::-1]:
        above = np.minimum(above, time_keys[:, x], out=run[x])
    return run


def _seen(ao: np.ndarray, dtype: type) -> np.ndarray:
    """seen[b, x]: the mask of the elements that arrived no later than x in row b.

    One prefix-OR of bits along each row's arrival order ao, scattered back
    to element order.
    """
    rows, n = ao.shape
    ao, at = _columns(ao)
    arrived = ao.astype(dtype)
    np.left_shift(dtype(1), arrived, out=arrived)
    for i in range(1, n):
        arrived[i] |= arrived[i - 1]
    seen = np.empty((rows, n), dtype=dtype)
    seen.reshape(-1)[at] = arrived
    return seen


def _tag_sub_batch(
    bits: np.ndarray,
    up: np.ndarray,
    blocks: tuple[tuple[int, int], ...],
    posts: np.integer,
    ao: np.ndarray,
    wo: np.ndarray,
) -> np.ndarray:
    """Tag flags (rows, n) of one sub-batch from its arrival and series orders.

    ao and wo are (rows, n) permutations: ao earliest first, wo the series
    order, whose positions blocks[i] = (start, stop) hold block i lightest
    first and whose later positions hold the posts, the elements of the
    mask posts; wo is read only when there is a block.  Work arrays are
    (positions, rows), so each step's slice is contiguous.
    """
    dtype = up.dtype.type
    seen = _seen(ao, dtype)
    tag = (seen & up) == 0  # (b)
    if not blocks:
        return tag  # every element is a post, and a post passes (a)

    # (a), inside each block: column r starts at seen[e_r] and only shrinks
    wo, at = (a[:blocks[-1][1]] for a in _columns(wo))  # the posts take no column
    state = seen.take(at)
    upw = up.take(wo)
    widest = max(stop - start for start, stop in blocks)
    scratch = np.empty((widest - 1, state.shape[1]), dtype=dtype)
    for start, stop in blocks:
        for w in range(start, stop - 1):
            cols = state[w + 1:stop]
            keep = np.right_shift(cols, wo[w], out=scratch[:stop - 1 - w])
            keep &= 1  # 1 where the column holds e_w, else 0
            keep -= 1  # 0 there, all-ones elsewhere
            keep |= upw[w]
            # cols &= up(e_w) where it holds e_w, branch-free: a masked AND was
            # about twice as slow where jumps are dense (measured on chains)
            cols &= keep
    state &= np.left_shift(dtype(1), wo, dtype=dtype)  # wo is uint8: shift in dtype
    passed = np.bitwise_or.reduce(state, axis=0)  # bit x: x passes (a)
    if posts:
        passed |= posts
    tag &= (passed[:, None] & bits) != 0
    return tag


def _tau_key(tau: float) -> int:
    """The largest order key whose time is at most tau, for tau in [0, 1)."""
    return int(tau * 2.0**53) << _INDEX_BITS | _INDEX_MASK


def batch_accept(
    tag_keys: np.ndarray, tau: float, is_maximal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First tagged arrival strictly after tau; (accepted or -1, success).

    tag_keys is a Piece's (n, m) tag_keys and tau lies in [0, 1).  The
    least tag key above _tau_key(tau) is the first such arrival, equal
    times going to the lowest index as in the stable arrival order.
    """
    above = np.uint64(_tau_key(tau) + 1)
    first = (tag_keys - above).min(axis=0)  # keys at or below tau wrap past every other
    has = first < _NO_TAG - above
    first += above
    accepted = np.where(has, (first & np.uint64(_INDEX_MASK)).astype(np.intp), -1)
    return accepted, has & is_maximal[accepted]


def batch_last_tag_time(tag_keys: np.ndarray, t: float) -> np.ndarray:
    """Arrival time of the last tag strictly before t; NaN when no arrival.

    tag_keys is a Piece's (n, m) tag_keys and t lies in (0, 1].  The first
    arrival is always tagged, so the value exists exactly when some element
    arrives before t.
    """
    below = np.uint64((math.ceil(t * 2.0**53) << _INDEX_BITS) - 1)
    gap = (below - tag_keys).min(axis=0)  # keys at or above the bound wrap past every other
    last = ((below - gap) >> _INDEX_BITS) * 2.0**-53
    last[gap > below] = np.nan
    return last


def _passed_mask(bitw: np.ndarray, upw: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Bit e of row b: e's bit is in the running up-mask when the scan reaches e.

    The bitmask greedy scan, over (n, rows) weight-order columns: bitw[w] and
    upw[w] are the bit and the up-mask of each row's w-th element.  The state
    is the up-mask of the running greedy element of the members scanned so
    far, all-ones while none is taken; a member (member[w]) whose bit is in
    the state takes over.
    """
    state = np.full(bitw.shape[1], np.iinfo(bitw.dtype).max, dtype=bitw.dtype)
    passed = np.zeros_like(state)
    hit = np.empty_like(state)
    go = np.empty(state.shape, dtype=bool)
    for w in range(len(bitw)):
        np.bitwise_and(state, bitw[w], out=hit)
        passed |= hit
        np.not_equal(hit, 0, out=go)
        go &= member[w]
        # state = where(go, upw[w], state), branch-free as in the tag kernel
        np.bitwise_xor(state, upw[w], out=hit)
        hit *= go
        state ^= hit
    return passed


def batch_pinned_tags(
    p: Poset, pins: Sequence[tuple[int, float]], time_keys: np.ndarray, worder: np.ndarray
) -> np.ndarray:
    """Per pin (x, t) and row: is x tagged when its arrival time is replaced by t?

    Row i of the (len(pins), rows) result belongs to pins[i]; every x must be
    maximal.  Then (b) holds, and a greedy chain that reaches x ends there,
    so x is tagged iff its bit is in the running up-mask when the bitmask
    scan reaches x, the members being x and every y with time_y < t, or
    time_y == t and y < x (the stable arrival sort's tie rule).  x's own
    membership matters only from its step on, so with no time equal to t
    one scan of {y : time_y < t} serves every pin at t; a time equal to t
    (quantised inputs) gives each pin at that t its own scan.  time_keys
    are a Piece's; times are read back from their gathered copy.

    worder may be the stable weight order or a Piece's worder, with
    the same flags: every maximal element lies in the top series part T,
    and before x either order lists only lower parts and T's members
    lighter than x, in weight order.  The scan's first take in T lies above
    all it took before, and it never leaves T, so at x it holds the greedy
    maximum of T's lighter members, or of lower parts only, in both orders.
    """
    up = _kernel_tables(p)[1]
    dtype = up.dtype.type
    wo, at = _columns(worder)
    timew = (time_keys.take(at) >> _INDEX_BITS) * 2.0**-53
    upw = up.take(wo)
    bitw = wo.astype(dtype)
    np.left_shift(dtype(1), bitw, out=bitw)
    out = np.empty((len(pins), len(time_keys)), dtype=bool)
    for t in dict.fromkeys(t for _, t in pins):
        member = timew < t
        shared = None if (timew == t).any() else _passed_mask(bitw, upw, member)
        for i, (x, s) in enumerate(pins):
            if s != t:
                continue
            passed = shared
            if passed is None:  # the tie rule makes the member set depend on x
                passed = _passed_mask(bitw, upw, member | ((timew == t) & (wo < x)))
            out[i] = (passed & (dtype(1) << dtype(x))) != 0
    return out


def batch_greedy_maximum(p: Poset, weights: np.ndarray) -> np.ndarray:
    """Greedy maximum of p, per row of weights.

    Equal weights go to the lowest index.  The greedy maximum is the one
    maximal element tagged when pinned at t = 1, every other element having
    arrived before it: batch_pinned_tags with all times 0 (index-only
    keys) and the stable weight order.  Raises TooLargeError when n exceeds
    SIM_CAP.
    """
    tops = np.array(sorted(p.maximal))
    time_keys = np.broadcast_to(np.arange(p.n, dtype=np.uint64), weights.shape)
    worder = _stable_argsort(weights).astype(np.uint8)
    hits = batch_pinned_tags(p, [(x, 1.0) for x in tops], time_keys, worder)
    return tops[hits.argmax(axis=0)]
