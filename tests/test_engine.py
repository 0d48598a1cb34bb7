"""The batched engine must be an exact pixel-for-pixel copy of the per-trial
reference in simulate / greedy — same tags, same acceptances, same RNG stream
regardless of chunking."""

import itertools
import math
import os
import pickle
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_secretary.engine import (
    CHUNK_TRIALS,
    SIM_CAP,
    _SUB_BATCH,
    _kernel_tables,
    _running_minimum,
    _series_ranks,
    _stable_argsort,
    _tau_key,
    batch_accept,
    batch_greedy_maximum,
    batch_last_tag_time,
    batch_tag_matrix,
    chunk_layout,
    chunk_tags,
    chunk_uniforms,
)
from poset_secretary.errors import TooLargeError
from poset_secretary.families import (
    antichain,
    boolean_lattice,
    chain,
    forest_of_chains,
    parse_generator_spec,
    random_poset,
    wedge,
)
from poset_secretary.greedy import WeightRanking, greedy_maximum
from poset_secretary.posets import Poset, from_relations
from poset_secretary.simulate import Trial, run_strategy, tag_sequence

from helpers import tag_keys_of, time_keys_of

POSETS = [
    chain(1),
    chain(5),
    antichain(4),
    wedge(),
    boolean_lattice(2),
    from_relations(6, [(0, 2), (1, 2), (3, 4)]),
    random_poset(7, 0.3, seed=5),
]


def batches(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.random((count, n)), rng.random((count, n))


def relabelled(p, seed):
    """The same order under a random relabelling, so relations run both ways
    between low and high element bits."""
    perm = np.random.default_rng(seed).permutation(p.n)
    lt = np.zeros_like(p.lt)
    lt[np.ix_(perm, perm)] = p.lt
    return Poset(p.n, lt)


def top_down(p):
    """The same order relabelled i -> n-1-i, so index order runs against every
    linear extension of a naturally labelled poset."""
    return Poset(p.n, p.lt[::-1, ::-1].copy())


def ordinal_sum(*parts):
    """The posets stacked bottom to top: every element of one lies below
    every element of each later one."""
    n = sum(q.n for q in parts)
    lt = np.zeros((n, n), dtype=bool)
    lo = 0
    for q in parts:
        hi = lo + q.n
        lt[lo:hi, lo:hi] = q.lt
        lt[lo:hi, hi:] = True
        lo = hi
    return Poset(n, lt)


def series_order(p, trial):
    """The trial's elements part-major: p's blocks bottom to top, then its
    posts, each lightest first with ties broken by index."""
    blocks = [part for part in p.series_parts if len(part) > 1]
    block_of = {x: i for i, part in enumerate(blocks) for x in part}
    rank = WeightRanking.from_weights(trial.weights).rank
    return sorted(range(p.n), key=lambda x: (block_of.get(x, len(blocks)), rank[x]))


def assert_matches_reference(p, times, weights):
    worder, tagged = batch_tag_matrix(p, times, weights)
    assert worder.dtype == np.uint8 and tagged.dtype == bool
    assert worder.shape == tagged.shape == times.shape
    for b in range(times.shape[0]):
        trial = Trial(times[b], weights[b])
        assert worder[b].tolist() == series_order(p, trial), (p, b)
        evs = tag_sequence(p, trial)
        assert [bool(tagged[b, e.element]) for e in evs] == [e.tagged for e in evs], (p, b)


def piece_rows(rows):
    """The row ranges of a chunk's pieces: _SUB_BATCH rows each, the last one short."""
    return [range(lo, min(lo + _SUB_BATCH, rows)) for lo in range(0, rows, _SUB_BATCH)]


class TestChunking:
    def test_layout_partitions_trials(self):
        layout = list(chunk_layout(2 * CHUNK_TRIALS + 17))
        assert layout == [(0, CHUNK_TRIALS), (1, CHUNK_TRIALS), (2, 17)]
        assert list(chunk_layout(CHUNK_TRIALS)) == [(0, CHUNK_TRIALS)]
        assert list(chunk_layout(0)) == []

    def test_partial_chunk_is_a_prefix(self):
        t_part, w_part = chunk_uniforms(5, 99, 3, 40)
        t_full, w_full = chunk_uniforms(5, 99, 3, 1000)
        assert np.array_equal(t_part, t_full[:40])
        assert np.array_equal(w_part, w_full[:40])

    def test_chunks_differ(self):
        t0, _ = chunk_uniforms(5, 99, 0, 10)
        t1, _ = chunk_uniforms(5, 99, 1, 10)
        assert not np.array_equal(t0, t1)

    def test_seeds_differ(self):
        t0, _ = chunk_uniforms(5, 1, 0, 10)
        t1, _ = chunk_uniforms(5, 2, 0, 10)
        assert not np.array_equal(t0, t1)

    @pytest.mark.parametrize("rows", [CHUNK_TRIALS, 3 * _SUB_BATCH + 17])
    def test_pieces_are_the_chunk_draw_bit_for_bit(self, rows):
        # two blocks and two posts: the elements rank 0, 0, 31, 31, 1, 1
        p = ordinal_sum(antichain(2), chain(1), wedge())
        ranks = _series_ranks(p)
        top = np.uint64(59)  # a rank sits above 53 value bits and 6 index bits
        for seed in (99, (1 << 64) - 1):
            times, weights = chunk_uniforms(6, seed, 2, rows)
            pieces = [(piece.time_keys, piece.keys) for piece in chunk_tags(p, seed, 2, rows)]
            assert [len(t) for t, _ in pieces] == [len(r) for r in piece_rows(rows)]
            time_keys = np.concatenate([t for t, _ in pieces])
            keys = np.concatenate([k for _, k in pieces])
            assert time_keys.dtype == keys.dtype == np.uint64
            assert np.array_equal(time_keys, keys[:, :6])
            assert np.array_equal(time_keys, time_keys_of(times))
            # a key is the uniform's 53 bits above the element's index, and a
            # weight key carries the element's series rank above both
            assert np.array_equal(keys >> top << top,
                                  np.broadcast_to(np.r_[np.zeros(6, np.uint64), ranks], keys.shape))
            value = keys & ((np.uint64(1) << top) - np.uint64(1))
            assert np.array_equal(((value >> 6) * 2.0**-53).view(np.uint64),
                                  np.hstack([times, weights]).view(np.uint64))
            assert np.array_equal(keys & 63, np.broadcast_to(np.tile(np.arange(6), 2), keys.shape))

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            chunk_uniforms(4, 1 << 64, 0, 1)
        with pytest.raises(ValueError):
            chunk_uniforms(4, -1, 0, 1)


class TestTagMatrix:
    @pytest.mark.parametrize("p", POSETS)
    def test_matches_per_trial_reference(self, p):
        assert_matches_reference(p, *batches(p.n, 300, seed=p.n * 1000 + 7))

    def test_first_arrival_column_always_tagged(self):
        p = random_poset(6, 0.5, seed=8)
        times, weights = batches(6, 500, seed=1)
        _, tagged = batch_tag_matrix(p, times, weights)
        assert tagged[np.arange(500), times.argmin(axis=1)].all()


class TestBitmaskKernel:
    """The one-bit-per-element kernel against the per-trial reference, across
    mask dtype boundaries, sub-batch boundaries and ties."""

    def test_up_masks_hold_the_strict_up_sets(self):
        up = _kernel_tables(wedge())[1]
        assert up.dtype == np.uint8 and up.tolist() == [0b110, 0, 0]
        up = _kernel_tables(chain(64))[1]  # bit 63 is the top of a uint64
        assert up.dtype == np.uint64 and up.tolist() == [(1 << 64) - (2 << x) for x in range(64)]

    @pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63, 64])
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
    def test_dtype_boundaries(self, n, density):
        p = relabelled(random_poset(n, density, seed=n), seed=n + 1)
        rows = 150 if n <= 17 else 60
        assert_matches_reference(p, *batches(n, rows, seed=n * 7 + int(density * 10)))

    # (b) must walk covers first: index order fails on chain(64), and reverse
    # index order on the two top-down-labelled posets
    @pytest.mark.parametrize(
        "p",
        [
            chain(64),
            antichain(64),
            relabelled(chain(64), seed=3),
            top_down(chain(64)),
            top_down(random_poset(64, 0.1, seed=5)),
        ],
    )
    def test_widest_families(self, p):
        assert_matches_reference(p, *batches(p.n, 25, seed=11))

    # tied rows in otherwise tie-free sub-batches: each sub-batch picks its
    # sorts from its own rows.  numpy's default argsort puts these weights in
    # an order other than the stable one.
    @pytest.mark.parametrize(
        "rows, tied",
        [
            pytest.param(1, (), id="1"),
            pytest.param(2047, (), id="2047"),
            pytest.param(2049, (), id="2049"),
            pytest.param(2048, (1000,), id="one-tied-row-in-2048"),
            pytest.param(4096, (2047,), id="tied-row-before-the-boundary"),
            pytest.param(4096, (2048,), id="tied-row-after-the-boundary"),
        ],
    )
    def test_row_counts_off_the_sub_batch(self, rows, tied):
        p = relabelled(random_poset(6, 0.4, seed=9), seed=2)
        times, weights = batches(6, rows, seed=rows)
        for r in tied:
            times[r] = np.floor(times[r] * 2) / 2
            weights[r] = [0.0, 0.5, 0.5, 0.0, 0.0, 0.0]
        assert_matches_reference(p, times, weights)

    @pytest.mark.parametrize(
        "n, tied",
        [pytest.param(n, "both", id=str(n)) for n in (5, 9, 20)]
        + [pytest.param(9, "times", id="times-only")]
        + [pytest.param(9, "weights", id="weights-only")],
    )
    def test_tied_times_and_weights_break_by_index(self, n, tied):
        rng = np.random.default_rng(n)
        times, weights = rng.random((400, n)), rng.random((400, n))
        if tied != "weights":
            times = np.floor(times * 4) / 4
            times[:5] = 0.5  # rows where every arrival ties
        if tied != "times":
            weights = np.floor(weights * 3) / 3
            weights[5:10] = 0.25
        p = relabelled(random_poset(n, 0.4, seed=n), seed=n)
        assert_matches_reference(p, times, weights)

    def test_slice_across_sub_batch_boundary_matches_full_chunk(self):
        p = relabelled(random_poset(12, 0.3, seed=4), seed=4)
        times, weights = chunk_uniforms(p.n, 5, 0, 4100)
        full = batch_tag_matrix(p, times, weights)
        for lo, hi in [(2000, 2100), (2047, 2049), (4095, 4100)]:
            part = batch_tag_matrix(p, times[lo:hi], weights[lo:hi])
            for got, want in zip(part, full):
                assert np.array_equal(got, want[lo:hi])


# Posets of several series parts.  A post (an element comparable to every
# other) passes test (a) outright, and test (a) runs only inside blocks
# (parts of two or more elements).
SERIES_POSETS = [
    pytest.param(boolean_lattice(3), id="boolean3"),
    pytest.param(ordinal_sum(antichain(2), chain(1), wedge(), chain(2), boolean_lattice(2)),
                 id="posts-and-blocks"),
    pytest.param(ordinal_sum(forest_of_chains([2, 3]), chain(3), random_poset(6, 0.3, seed=2)),
                 id="forest-chain-random"),
    pytest.param(random_poset(20, 0.5, seed=1), id="random20-two-blocks"),
    pytest.param(random_poset(64, 0.5, seed=1), id="random64-posts-and-blocks"),
    pytest.param(boolean_lattice(6), id="boolean6-one-block-between-two-posts"),
]
# every rank bit: 32 blocks and no post; and 31 blocks beside two posts
BLOCKS_32 = ordinal_sum(*[antichain(2)] * 32)
BLOCKS_31_POSTS = ordinal_sum(chain(1), *[antichain(2)] * 15, chain(1), *[antichain(2)] * 16)
LABELLINGS = [
    pytest.param(lambda p: p, id="natural"),
    pytest.param(lambda p: relabelled(p, seed=p.n), id="relabelled"),
    pytest.param(top_down, id="top-down"),
]


class TestSeriesParts:
    @pytest.mark.parametrize("label", LABELLINGS)
    @pytest.mark.parametrize("p", SERIES_POSETS)
    def test_matches_per_trial_reference(self, p, label):
        q = label(p)
        assert len(q.series_parts) >= 2
        assert_matches_reference(q, *batches(q.n, 60 if q.n > 20 else 200, seed=q.n + 3))

    @pytest.mark.parametrize("label", LABELLINGS)
    @pytest.mark.parametrize("p, posts", [pytest.param(BLOCKS_32, 0, id="32-blocks"),
                                          pytest.param(BLOCKS_31_POSTS, 2, id="31-blocks-2-posts")])
    def test_every_rank_bit(self, p, posts, label):
        q = label(p)
        sizes = [len(part) for part in q.series_parts]
        assert q.n == SIM_CAP and sizes.count(1) == posts and len(sizes) - posts == 32 - posts // 2
        assert_matches_reference(q, *batches(q.n, 25, seed=posts))


class TestChunkTags:
    FIELDS = ("time_keys", "aorder", "worder", "tagged")

    @pytest.mark.parametrize(
        "p",
        [
            POSETS[-1],
            relabelled(random_poset(64, 0.1, seed=3), seed=3),
            relabelled(random_poset(20, 0.5, seed=1), seed=1),
            top_down(BLOCKS_31_POSTS),
            relabelled(BLOCKS_32, seed=2),
            chain(1),  # one post
            antichain(64),  # one block
        ],
    )
    @pytest.mark.parametrize("rows", [CHUNK_TRIALS, 3 * _SUB_BATCH + 17, 5])
    def test_equals_the_kernel_on_the_whole_chunk_draw(self, p, rows):
        # the pieces, in row order, stack up to the kernel's whole-chunk output
        times, weights = chunk_uniforms(p.n, 8, 3, rows)
        want = (time_keys_of(times), _stable_argsort(times), *batch_tag_matrix(p, times, weights))
        pieces = []
        for piece in chunk_tags(p, 8, 3, rows):
            pieces.append([getattr(piece, f) for f in self.FIELDS])
            # row k of arrival_tags holds every trial's flag at its k-th arrival
            by_arrival = np.take_along_axis(piece.tagged, piece.aorder.astype(np.intp), axis=1)
            assert np.array_equal(piece.arrival_tags, by_arrival.T)
        assert [len(piece[0]) for piece in pieces] == [len(r) for r in piece_rows(rows)]
        for piece in pieces:
            assert [a.dtype for a in piece] == [np.uint64, np.uint8, np.uint8, bool]
            assert len({a.shape for a in piece}) == 1
        got = [np.concatenate(a) for a in zip(*pieces)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        for b in (0, rows // 2, rows - 1):
            assert got[2][b].tolist() == series_order(p, Trial(times[b], weights[b]))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_a_warm_chunk_pass_takes_back_the_pages_its_pieces_freed(self):
        # in a fresh process, where no large block has raised glibc's dynamic
        # trim threshold, each antichain:64 piece frees more than that
        # threshold; unpinned, glibc hands it back and the next piece faults
        # it in again, about 23000 minor faults per chunk.  A piece that
        # nothing reads frees only its raw words, so each piece builds its
        # series order and tag matrix, as a pass's reducers make it do.
        code = (
            "import resource\n"
            "from poset_secretary.engine import CHUNK_TRIALS, chunk_tags\n"
            "from poset_secretary.families import antichain\n"
            "def faults(chunk):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    for piece in chunk_tags(antichain(64), 0, chunk, CHUNK_TRIALS):\n"
            "        piece.tagged, piece.worder\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "faults(0)\n"
            "print(faults(1))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                             check=True).stdout
        assert int(out) < 1000


class TestSimCap:
    def test_over_cap_raises_naming_the_cap(self):
        times, weights = batches(SIM_CAP + 1, 1, seed=0)
        with pytest.raises(TooLargeError, match="cap"):
            batch_tag_matrix(antichain(SIM_CAP + 1), times, weights)
        with pytest.raises(TooLargeError, match="cap"):
            chunk_tags(antichain(SIM_CAP + 1), 0, 0, 1)


def with_quarter_times(times):
    """The times as drawn, and on a grid of 1/4: there some times equal tau or
    t exactly and some tagged elements arrive together."""
    return times, np.floor(times * 4) / 4


class TestBatchAccept:
    @pytest.mark.parametrize("tau", [0.0, 0.25, 1 / 2.718281828459045, 0.9])
    def test_matches_run_strategy(self, tau):
        p = random_poset(7, 0.3, seed=5)
        drawn, weights = batches(7, 400, seed=17)
        for times in with_quarter_times(drawn):
            _, tagged = batch_tag_matrix(p, times, weights)
            accepted, success = batch_accept(tag_keys_of(times, tagged), tau, p.is_maximal)
            for b in range(400):
                out = run_strategy(p, Trial(times[b], weights[b]), tau)
                assert accepted[b] == (-1 if out.accepted is None else out.accepted)
                assert success[b] == out.success

    def test_rows_past_the_first_sub_batch(self):
        p = random_poset(7, 0.3, seed=5)
        rows = 2 * _SUB_BATCH + 5
        drawn, weights = batches(7, rows, seed=18)
        for times in with_quarter_times(drawn):
            _, tagged = batch_tag_matrix(p, times, weights)
            accepted, success = batch_accept(tag_keys_of(times, tagged), 0.25, p.is_maximal)
            for b in (0, _SUB_BATCH - 1, _SUB_BATCH, 2 * _SUB_BATCH, rows - 1):
                out = run_strategy(p, Trial(times[b], weights[b]), 0.25)
                assert accepted[b] == (-1 if out.accepted is None else out.accepted)
                assert success[b] == out.success


# the last two chains' series orders are not 0..n-1: 3 < 0 < 4 < 1 < 2, and
# 64 elements joined by covers in a random order
CHAIN_64_ORDER = np.random.default_rng(6).permutation(64)
CHAINS = [
    pytest.param(chain(1), id="chain1"),
    pytest.param(chain(2), id="chain2"),
    pytest.param(chain(20), id="chain20"),
    pytest.param(chain(64), id="chain64"),
    pytest.param(from_relations(5, [(3, 0), (0, 4), (4, 1), (1, 2)]), id="relabelled5"),
    pytest.param(from_relations(64, zip(CHAIN_64_ORDER[:-1], CHAIN_64_ORDER[1:])), id="relabelled64"),
]


def assert_tag_keys_hold_the_tagged_keys(tag_keys, keys, tagged):
    """Column b of tag_keys holds exactly row b's tagged keys, each at least once."""
    at = (tag_keys & np.uint64(63)).astype(np.intp)
    rows = np.arange(tagged.shape[0])
    assert np.array_equal(tag_keys, keys[rows, at]) and tagged[rows, at].all()
    ordered = np.sort(tag_keys, axis=0)
    distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)
    assert np.array_equal(distinct, np.count_nonzero(tagged, axis=1))


class TestPostRule:
    """A chain's tags and acceptance come from one running minimum of its time keys."""

    @pytest.mark.parametrize("p", CHAINS)
    @pytest.mark.parametrize("rows", [3 * _SUB_BATCH + 17, 5])
    def test_pieces_equal_the_kernel(self, p, rows):
        assert not any(len(part) > 1 for part in p.series_parts)
        times, weights = chunk_uniforms(p.n, 4, 1, rows)
        _, want = batch_tag_matrix(p, times, weights)
        keys = time_keys_of(times)
        lo = 0
        for piece in chunk_tags(p, 4, 1, rows):
            hi = lo + len(piece.tag_keys[0])
            assert piece.tag_keys.shape == (p.n, hi - lo) and piece.tag_keys.dtype == np.uint64
            assert piece.tagged.dtype == bool and np.array_equal(piece.tagged, want[lo:hi])
            assert_tag_keys_hold_the_tagged_keys(piece.tag_keys, keys[lo:hi], want[lo:hi])
            # row x belongs to element x: it holds x's own key exactly where x is tagged
            assert np.array_equal(piece.tag_keys == keys[lo:hi].T, want[lo:hi].T)
            lo = hi
        assert lo == rows

    @pytest.mark.parametrize("p", [POSETS[-1], wedge(), antichain(64)])
    def test_a_poset_with_a_block_reads_its_tag_keys_off_the_kernel(self, p):
        times, weights = chunk_uniforms(p.n, 4, 1, 300)
        _, tagged = batch_tag_matrix(p, times, weights)
        [piece] = chunk_tags(p, 4, 1, 300)
        assert np.array_equal(piece.tag_keys, tag_keys_of(times, tagged))

    @pytest.mark.parametrize("p", [chain(6), from_relations(5, [(3, 0), (0, 4), (4, 1), (1, 2)])])
    def test_accepts_as_run_strategy_does(self, p):
        order = np.array([part[0] for part in p.series_parts])
        drawn, weights = batches(p.n, 400, seed=p.n)
        for times in with_quarter_times(drawn):
            # 0.25 ties many quarter-grid times; drawn[7, 2] ties one time
            for tau in (0.0, 0.25, 0.5, float(drawn[7, 2]), 0.9):
                tag_keys = _running_minimum(time_keys_of(times), order)
                accepted, success = batch_accept(tag_keys, tau, p.is_maximal)
                for b in range(400):
                    out = run_strategy(p, Trial(times[b], weights[b]), tau)
                    assert accepted[b] == (-1 if out.accepted is None else out.accepted)
                    assert success[b] == out.success

    @pytest.mark.parametrize("p", [chain(6), from_relations(5, [(3, 0), (0, 4), (4, 1), (1, 2)])])
    def test_the_last_tag_time_is_the_kernels(self, p):
        order = np.array([part[0] for part in p.series_parts])
        drawn, weights = batches(p.n, 400, seed=p.n + 1)
        for times in with_quarter_times(drawn):
            _, tagged = batch_tag_matrix(p, times, weights)
            tag_keys = _running_minimum(time_keys_of(times), order)
            for t in (0.25, 0.5, float(drawn[7, 2]), 1.0):
                want = batch_last_tag_time(tag_keys_of(times, tagged), t)
                got = batch_last_tag_time(tag_keys, t)
                assert np.array_equal(got, want, equal_nan=True)

    @given(
        t=st.floats(0.0, 1.0, exclude_min=True),
        k=st.integers(0, 2**53 - 1),
        near=st.integers(-2, 2),
        x=st.integers(0, 63),
    )
    @settings(max_examples=500, deadline=None)
    def test_the_last_tag_bound_holds_exactly_the_keys_below_t(self, t, k, near, x):
        # batch_last_tag_time keeps the keys below ceil(t * 2^53) << 6
        bound = math.ceil(t * 2**53) << 6
        for k in (k, min(max(math.ceil(t * 2**53) + near, 0), 2**53 - 1)):
            assert ((k << 6 | x) < bound) == (k * 2.0**-53 < t)

    @given(
        tau=st.floats(0.0, 1.0, exclude_max=True),
        k=st.integers(0, 2**53 - 1),
        near=st.integers(-2, 2),
        x=st.integers(0, 63),
    )
    @settings(max_examples=500, deadline=None)
    def test_a_key_is_above_the_tau_key_iff_its_time_is_above_tau(self, tau, k, near, x):
        # also a k beside tau's own grid point, where a float tau in [1/2, 1) lies
        for k in (k, min(max(int(tau * 2**53) + near, 0), 2**53 - 1)):
            assert ((k << 6 | x) > _tau_key(tau)) == (k * 2.0**-53 > tau)


def every_arrival_order(n):
    """(n!, n) times on a grid of 1/8 (n <= 8), one row per arrival order."""
    orders = np.array(list(itertools.permutations(range(n))))
    times = np.empty(orders.shape)
    np.put_along_axis(times, orders, np.arange(n) / 8, axis=1)
    return orders, times


def assert_product_law(orders, tagged):
    """Each tag pattern by arrival position (bit k-1 for the k-th arrival)
    occurs n! * prod_k (1/k or 1 - 1/k) times over the n! arrival orders."""
    n = orders.shape[1]
    want = np.zeros(1 << n, dtype=np.int64)
    for code in range(1 << n):
        # the k-th arrival is tagged in 1 of k equally likely cases
        want[code] = math.prod(1 if code >> (k - 1) & 1 else k - 1 for k in range(1, n + 1))
    assert want.sum() == math.factorial(n) == len(orders)
    codes = np.take_along_axis(tagged, orders, axis=1) @ (1 << np.arange(n))
    assert np.array_equal(np.bincount(codes, minlength=1 << n), want)


class TestExactTagLaw:
    """Lemma 2 exactly, for one fixed weight row and all n! arrival orders."""

    @pytest.mark.parametrize(
        "spec", ["chain:7", "antichain:7", "wedge", "boolean:3", "random:7:0.3:42", "random:8:0.3:42"]
    )
    def test_the_triangle_gives_the_product_law(self, spec):
        p = parse_generator_spec(spec).build()
        orders, times = every_arrival_order(p.n)
        weights = np.tile(np.random.default_rng(p.n).random(p.n), (len(times), 1))
        assert_product_law(orders, batch_tag_matrix(p, times, weights)[1])

    def test_the_post_rule_gives_the_product_law(self):
        p = parse_generator_spec("chain:7").build()
        orders, times = every_arrival_order(p.n)
        time_keys = time_keys_of(times)
        tag_keys = _running_minimum(time_keys, np.arange(p.n))
        assert_product_law(orders, (tag_keys == time_keys.T).T)  # row x of the tag keys is x


class TestLastTagTime:
    def test_matches_reference_scan(self):
        p = random_poset(6, 0.4, seed=2)
        drawn, weights = batches(6, 400, seed=23)
        for times in with_quarter_times(drawn):
            _, tagged = batch_tag_matrix(p, times, weights)
            for t in (0.25, 0.3, 0.5, 0.7, 1.0):
                got = batch_last_tag_time(tag_keys_of(times, tagged), t)
                for b in range(400):
                    evs = tag_sequence(p, Trial(times[b], weights[b]))
                    ref = [e.time for e in evs if e.tagged and e.time < t]
                    if ref:
                        assert got[b] == ref[-1]
                    else:
                        assert np.isnan(got[b])

    def test_no_arrival_before_t_is_nan(self):
        p = chain(2)
        times = np.array([[0.8, 0.9]])
        weights = np.array([[0.1, 0.2]])
        _, tagged = batch_tag_matrix(p, times, weights)
        assert np.isnan(batch_last_tag_time(tag_keys_of(times, tagged), 0.5)[0])


class TestBatchGreedyMax:
    @pytest.mark.parametrize("p", POSETS)
    def test_matches_definitional(self, p):
        _, weights = batches(p.n, 300, seed=p.n * 31)
        got = batch_greedy_maximum(p, weights)
        for b in range(300):
            want = greedy_maximum(p, WeightRanking.from_weights(weights[b]))
            assert got[b] == want


def test_poset_pickle_round_trip():
    p = random_poset(7, 0.3, seed=5)
    _ = p.maximal  # populate cached views first
    q = pickle.loads(pickle.dumps(p))
    assert q == p
    assert not q.lt.flags.writeable
    assert q.maximal == p.maximal
