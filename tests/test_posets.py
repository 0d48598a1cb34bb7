import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_secretary.errors import CycleError, EmptyPosetError
from poset_secretary.posets import (
    Poset,
    SubsetMap,
    from_relations,
    induced_subposet,
    transitive_closure,
    transitive_reduction,
)


def relation_strategy(max_n=6):
    """Random acyclic generating relations: pairs (a, b) with a < b as ints.

    Orienting every pair upward guarantees acyclicity, so closure must
    always succeed; relabelled/cyclic cases are exercised separately.
    """
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                    lambda ab: (min(ab), max(ab))
                ).filter(lambda ab: ab[0] != ab[1]),
                max_size=12,
            ),
        )
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPosetError):
            from_relations(0, [])

    def test_singleton(self):
        p = from_relations(1, [])
        assert p.n == 1
        assert p.maximal == frozenset({0})

    def test_reflexive_pair_rejected(self):
        with pytest.raises(CycleError):
            from_relations(2, [(0, 0)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            from_relations(3, [(0, 1), (1, 2), (2, 0)])

    def test_out_of_range_pair(self):
        with pytest.raises(IndexError):
            from_relations(2, [(0, 2)])

    def test_unclosed_matrix_rejected(self):
        lt = np.zeros((3, 3), dtype=bool)
        lt[0, 1] = lt[1, 2] = True  # missing 0 < 2
        with pytest.raises(ValueError):
            Poset(3, lt)

    def test_matrix_is_locked_and_copied(self):
        lt = np.zeros((2, 2), dtype=bool)
        lt[0, 1] = True
        p = Poset(2, lt)
        lt[1, 0] = True  # caller's array; must not leak in
        assert not p.lt[1, 0]
        with pytest.raises(ValueError):
            p.lt[0, 1] = False

    def test_closure_applied(self):
        p = from_relations(4, [(0, 1), (1, 2), (2, 3)])
        assert p.less(0, 3)
        assert not p.less(3, 0)

    def test_equality_and_hash(self):
        a = from_relations(3, [(0, 1), (1, 2)])
        b = from_relations(3, [(0, 1), (1, 2), (0, 2)])  # same closure
        c = from_relations(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a poset"


class TestQueries:
    def test_maximal_of_chain(self):
        p = from_relations(3, [(0, 1), (1, 2)])
        assert p.maximal == frozenset({2})
        assert p.is_maximal.tolist() == [False, False, True]

    def test_maximal_of_antichain(self):
        p = from_relations(4, [])
        assert p.maximal == frozenset(range(4))

    def test_above_masks(self):
        p = from_relations(3, [(0, 1), (0, 2)])
        assert p.above_masks == (0b110, 0, 0)


def antichain_sum(*sizes):
    """Antichains of the given sizes stacked bottom to top, labelled upward."""
    starts = np.cumsum((0,) + sizes)
    return from_relations(int(starts[-1]), [
        (a, b)
        for lo, mid, hi in zip(starts, starts[1:], starts[2:])
        for a in range(lo, mid)
        for b in range(mid, hi)
    ])


def relabel(p, perm):
    """p with element i renamed perm[i]."""
    lt = np.zeros_like(p.lt)
    lt[np.ix_(perm, perm)] = p.lt
    return Poset(p.n, lt)


class TestSeriesParts:
    def test_chain_is_all_posts(self):
        p = from_relations(4, [(2, 0), (0, 3), (3, 1)])
        assert p.series_parts == ((2,), (0,), (3,), (1,))

    def test_antichain_is_one_part(self):
        assert from_relations(4, []).series_parts == ((0, 1, 2, 3),)

    def test_boolean_lattice_and_wedge(self):
        subsets = [(a, b) for a in range(8) for b in range(8) if a != b and a & b == a]
        cube = from_relations(8, subsets)
        assert cube.series_parts == ((0,), (1, 2, 3, 4, 5, 6), (7,))
        assert from_relations(3, [(0, 1), (0, 2)]).series_parts == ((0,), (1, 2))

    def test_ordinal_sum_of_antichains_and_its_relabelling(self):
        p = antichain_sum(2, 1, 3, 1, 2)
        want = ((0, 1), (2,), (3, 4, 5), (6,), (7, 8))
        assert p.series_parts == want
        perm = np.random.default_rng(5).permutation(p.n)
        q = relabel(p, perm)
        assert q.series_parts == tuple(tuple(sorted(int(perm[x]) for x in part)) for part in want)


@given(relation_strategy(max_n=9), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_series_parts_are_the_ordinal_sum_decomposition(n_pairs, rnd):
    n, pairs = n_pairs
    perm = list(range(n))
    rnd.shuffle(perm)
    p = relabel(from_relations(n, pairs), perm)
    parts = p.series_parts
    assert sorted(x for part in parts for x in part) == list(range(n))
    assert all(list(part) == sorted(part) for part in parts)
    for i, lower in enumerate(parts):
        for upper in parts[i + 1:]:  # bottom to top, every pair across parts comparable
            assert all(p.less(a, b) for a in lower for b in upper)
        reached, frontier = {lower[0]}, [lower[0]]  # the part's incomparability graph is connected
        while frontier:
            a = frontier.pop()
            for b in lower:
                if b not in reached and not p.less(a, b) and not p.less(b, a):
                    reached.add(b)
                    frontier.append(b)
        assert reached == set(lower)


class TestSubposets:
    def test_restrict_chain(self):
        p = from_relations(4, [(0, 1), (1, 2), (2, 3)])
        q = induced_subposet(p, SubsetMap((0, 2, 3)))
        assert q.n == 3
        assert q.less(0, 1) and q.less(1, 2) and q.less(0, 2)

    def test_empty_subset_rejected(self):
        p = from_relations(2, [(0, 1)])
        with pytest.raises(EmptyPosetError):
            induced_subposet(p, SubsetMap(()))

    def test_subset_member_out_of_range(self):
        p = from_relations(2, [(0, 1)])
        with pytest.raises(IndexError):
            induced_subposet(p, SubsetMap((0, 5)))

    def test_subsetmap_requires_increasing(self):
        with pytest.raises(ValueError):
            SubsetMap((2, 1))


class TestReduction:
    def test_chain_covers(self):
        p = from_relations(4, [(0, 1), (1, 2), (2, 3)])
        assert transitive_reduction(p) == [(0, 1), (1, 2), (2, 3)]

    def test_diamond_covers(self):
        p = from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert transitive_reduction(p) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_reduction_regenerates_poset(self):
        p = from_relations(5, [(0, 2), (2, 4), (1, 2), (0, 4), (3, 4)])
        assert from_relations(p.n, transitive_reduction(p)) == p


@given(relation_strategy())
@settings(max_examples=200, deadline=None)
def test_closure_idempotent_and_valid(n_pairs):
    n, pairs = n_pairs
    p = from_relations(n, pairs)
    closed = transitive_closure(p.lt)
    assert np.array_equal(closed, p.lt)
    assert not p.lt.diagonal().any()
    for a, b in pairs:
        assert p.less(a, b)


@given(relation_strategy())
@settings(max_examples=100, deadline=None)
def test_maximal_never_empty_and_correct(n_pairs):
    n, pairs = n_pairs
    p = from_relations(n, pairs)
    mx = p.maximal
    assert mx
    for x in range(n):
        assert (x in mx) == (not p.lt[x].any())


@given(relation_strategy(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_restriction_commutes_with_relation(n_pairs, rnd):
    n, pairs = n_pairs
    p = from_relations(n, pairs)
    members = tuple(sorted(rnd.sample(range(n), rnd.randint(1, n))))
    q = induced_subposet(p, SubsetMap(members))
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            assert q.less(i, j) == p.less(a, b)


@given(relation_strategy())
@settings(max_examples=100, deadline=None)
def test_reduction_round_trips(n_pairs):
    n, pairs = n_pairs
    p = from_relations(n, pairs)
    assert from_relations(n, transitive_reduction(p)) == p
