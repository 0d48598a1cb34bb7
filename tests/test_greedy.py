"""Greedy chains, tagging, and the exact mu / mu_t tables.

The exact tables come from a recursion over the greedy chain's visit
densities, so they are cross-checked here against deliberately naive
oracles that replay the definitional recursion permutation by permutation
(and, for mu_t, sum it over every subset of discarded elements), and at
larger n, up to the simulator's n = 64, where no oracle is affordable,
against closed forms.
"""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_secretary import greedy
from poset_secretary.engine import batch_greedy_maximum
from poset_secretary.errors import NotMaximalError
from poset_secretary.families import (
    antichain,
    boolean_lattice,
    chain,
    forest_of_chains,
    random_poset,
    wedge,
)
from poset_secretary.greedy import (
    WeightRanking,
    check_mu_monotonicity,
    greedy_chain,
    greedy_maximum,
    is_tagged,
    mu_exact,
    mu_t_exact,
)
from poset_secretary.montecarlo import MONOTONICITY_GRID
from poset_secretary.posets import Poset, SubsetMap, from_relations, induced_subposet


def mu_oracle(p):
    """Greedy-maximum distribution by replaying the definitional recursion
    for every ranking; independent of the vectorised enumeration under test."""
    counts = [0] * p.n
    for perm in itertools.permutations(range(p.n)):
        rank = [0] * p.n
        for r, elem in enumerate(perm):
            rank[elem] = r
        counts[greedy_maximum(p, WeightRanking(tuple(rank)))] += 1
    total = factorial(p.n)
    return tuple(Fraction(c, total) for c in counts)


def small_posets():
    return [
        chain(1),
        chain(4),
        antichain(3),
        wedge(),
        boolean_lattice(2),
        from_relations(3, [(0, 1)]),                # a < b, c isolated
        from_relations(4, [(0, 1), (2, 3)]),        # two 2-chains
        from_relations(4, [(0, 3), (1, 3), (2, 3)]),
        from_relations(5, [(0, 2), (1, 2), (2, 3)]),
        random_poset(5, 0.4, seed=11),
    ]


# up-sets shrink by up to four along a relation here, and by up to seven in
# boolean_lattice(3), against at most three in small_posets(); labels run
# top-down, so index order is not a linear extension
RANDOM_6 = Poset(6, random_poset(6, 0.4, seed=2).lt[::-1, ::-1])


class TestGreedyChain:
    def test_singleton(self):
        assert greedy_chain(chain(1), WeightRanking((0,))) == (0,)

    def test_chain_walks_from_lightest_upward(self):
        p = chain(4)
        # weights: element 2 lightest
        w = WeightRanking.from_weights([0.5, 0.9, 0.1, 0.7])
        assert greedy_chain(p, w) == (2, 3)

    def test_antichain_picks_global_lightest(self):
        w = WeightRanking.from_weights([0.4, 0.2, 0.9])
        assert greedy_chain(antichain(3), w) == (1,)

    def test_wedge_example(self):
        p = wedge()
        # bottom lightest: chain goes 0 -> lighter of {1, 2}
        assert greedy_chain(p, WeightRanking((0, 1, 2))) == (0, 1)
        assert greedy_chain(p, WeightRanking((0, 2, 1))) == (0, 2)
        # a top element lightest: chain is just that element
        assert greedy_chain(p, WeightRanking((1, 0, 2))) == (1,)

    def test_ranking_size_mismatch(self):
        with pytest.raises(ValueError):
            greedy_chain(chain(3), WeightRanking((0, 1)))

    def test_ranking_must_be_permutation(self):
        with pytest.raises(ValueError):
            WeightRanking((0, 0, 1))

    def test_from_weights_breaks_ties_by_index(self):
        assert WeightRanking.from_weights([0.5, 0.5, 0.1]).rank == (1, 2, 0)


class TestTagging:
    def test_first_arrival_always_tagged(self):
        p_x = induced_subposet(chain(5), SubsetMap((2,)))
        assert is_tagged(p_x, 0, WeightRanking((0,)))

    def test_tag_depends_on_exposed_relations_only(self):
        # exposed = {0, 2} inside chain(3): 0 < 2, so 2 is tagged iff it is
        # the greedy max of that two-element chain — always.
        p = chain(3)
        p_x = induced_subposet(p, SubsetMap((0, 2)))
        for rank in [(0, 1), (1, 0)]:
            assert is_tagged(p_x, 1, WeightRanking(rank))

    def test_incomparable_arrival_tagged_iff_lighter(self):
        p_x = induced_subposet(antichain(3), SubsetMap((0, 1)))
        assert is_tagged(p_x, 1, WeightRanking((1, 0)))
        assert not is_tagged(p_x, 1, WeightRanking((0, 1)))


class TestMuExact:
    def test_chain_concentrates_on_top(self):
        mu = mu_exact(chain(5))
        assert mu[4] == 1
        assert all(mu[x] == 0 for x in range(4))

    def test_antichain_is_uniform(self):
        mu = mu_exact(antichain(4))
        assert all(mu[x] == Fraction(1, 4) for x in range(4))

    def test_wedge_splits_evenly(self):
        mu = mu_exact(wedge())
        assert (mu[0], mu[1], mu[2]) == (0, Fraction(1, 2), Fraction(1, 2))

    def test_chain_plus_isolated_point(self):
        # {a < b, c}: b wins unless c is globally lightest (prob 1/3).
        mu = mu_exact(from_relations(3, [(0, 1)]))
        assert (mu[0], mu[1], mu[2]) == (0, Fraction(2, 3), Fraction(1, 3))

    def test_boolean_lattice_top(self):
        mu = mu_exact(boolean_lattice(3))
        assert mu[7] == 1

    @pytest.mark.parametrize("p", small_posets() + [boolean_lattice(3), RANDOM_6])
    def test_matches_definitional_oracle(self, p):
        assert mu_exact(p).values == mu_oracle(p)

    def test_closed_forms_at_the_cap(self):
        assert mu_exact(antichain(10)).values == (Fraction(1, 10),) * 10
        assert mu_exact(chain(10))[9] == 1
        # each chain's top ends the greedy chain iff its chain holds the
        # globally lightest element
        lengths = (1, 2, 3, 4)
        mu = mu_exact(forest_of_chains(lengths))
        tops = itertools.accumulate(lengths)
        assert [mu[top - 1] for top in tops] == [Fraction(m, 10) for m in lengths]

    def test_past_the_old_cap(self):
        assert mu_exact(chain(11))[10] == 1

    def test_antichain_64_is_uniform(self):
        assert mu_exact(antichain(64)).values == (Fraction(1, 64),) * 64


def mu_t_oracle(p, x, t):
    """Subset expansion evaluated with the permutation-replay mu oracle."""
    t = Fraction(t)
    n = p.n
    others = [i for i in range(n) if i != x]
    total = Fraction(0)
    for r in range(n):
        for kept in itertools.combinations(others, r):
            members = tuple(sorted(kept + (x,)))
            sub = induced_subposet(p, SubsetMap(members))
            total += (
                t ** (len(members) - 1)
                * (1 - t) ** (n - len(members))
                * mu_oracle(sub)[members.index(x)]
            )
    return total


class TestMuT:
    def test_two_antichain_halfway(self):
        # lone rival kept with prob 1/2, then x wins half the time: 1/2 + 1/2 * 1/2
        assert mu_t_exact(antichain(2), 0, Fraction(1, 2)) == Fraction(3, 4)

    def test_chain_plus_isolated_closed_form(self):
        # {a < b, c}, x = b: polynomial 1 - t/2 + t^2/6
        p = from_relations(3, [(0, 1)])
        for t in [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]:
            assert mu_t_exact(p, 1, t) == 1 - t / 2 + t * t / 6
        assert mu_t_exact(p, 1, Fraction(1, 2)) == Fraction(19, 24)

    def test_t_one_recovers_mu(self):
        for p in small_posets():
            mu = mu_exact(p)
            for x in sorted(p.maximal):
                assert mu_t_exact(p, x, Fraction(1)) == mu[x]

    def test_t_zero_is_certainty(self):
        for p in small_posets():
            for x in sorted(p.maximal):
                assert mu_t_exact(p, x, Fraction(0)) == 1

    @pytest.mark.parametrize("p", small_posets() + [RANDOM_6])
    def test_matches_expansion_oracle(self, p):
        for x in sorted(p.maximal):
            for t in [Fraction(1, 3), Fraction(2, 3)]:
                assert mu_t_exact(p, x, t) == mu_t_oracle(p, x, t)

    def test_antichain_closed_form_at_the_cap(self):
        # x ends the chain iff it is the lightest: (1/t) int_0^t (1-u)^7 du
        p = antichain(8)
        assert mu_t_exact(p, 0, 0) == 1
        for t in MONOTONICITY_GRID[1:]:
            assert mu_t_exact(p, 0, t) == (1 - (1 - t) ** 8) / (8 * t)

    def test_accepts_float_and_string_t(self):
        p = antichain(2)
        assert mu_t_exact(p, 0, 0.5) == Fraction(3, 4)
        assert mu_t_exact(p, 0, "1/2") == Fraction(3, 4)

    def test_rejects_out_of_range_t(self):
        with pytest.raises(ValueError):
            mu_t_exact(antichain(2), 0, Fraction(3, 2))
        with pytest.raises(ValueError):
            mu_t_exact(antichain(2), 0, -0.25)

    def test_rejects_non_maximal_element(self):
        with pytest.raises(NotMaximalError):
            mu_t_exact(chain(3), 0, Fraction(1, 2))

    def test_rejects_out_of_range_element(self):
        with pytest.raises(IndexError):
            mu_t_exact(chain(3), 7, Fraction(1, 2))

    def test_antichain_closed_form_past_the_old_cap(self):
        # n = 9 is one past the retired n <= 8 limit; n = 64 is the simulator's
        half = Fraction(1, 2)
        for n in (9, 64):
            assert mu_t_exact(antichain(n), 0, half) == (1 - half**n) / (n * half)
            table = mu_exact(antichain(n))
            for t in MONOTONICITY_GRID[1:]:
                assert table.mu_t(n - 1, t) == (1 - (1 - t) ** n) / (n * t)


class TestMonotonicity:
    def test_ok_on_examples(self):
        grid = [Fraction(k, 8) for k in range(9)]
        for p in small_posets():
            rep = check_mu_monotonicity(mu_exact(p), grid)
            assert rep.ok
            assert rep.checks == len(p.maximal) * len(grid)

    def test_past_the_old_cap(self):
        grid = [Fraction(k, 8) for k in range(9)]
        rep = check_mu_monotonicity(mu_exact(antichain(9)), grid)
        assert rep.ok and rep.checks == 9 * len(grid)

    def test_builds_the_densities_once(self, monkeypatch):
        calls = []

        def counted(p, _fn=greedy._visit_densities):
            calls.append(p)
            return _fn(p)

        monkeypatch.setattr(greedy, "_visit_densities", counted)
        p = random_poset(8, 0.3, seed=42)
        rep = check_mu_monotonicity(mu_exact(p), MONOTONICITY_GRID)
        assert rep.ok and rep.checks == len(p.maximal) * len(MONOTONICITY_GRID) > 1
        assert len(calls) == 1


# -- properties ---------------------------------------------------------------

posets_strategy = st.sampled_from(small_posets())
rankings = st.permutations(list(range(5)))


@given(posets_strategy, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_greedy_chain_is_increasing_in_order_and_weight(p, rnd):
    perm = list(range(p.n))
    rnd.shuffle(perm)
    rank = [0] * p.n
    for r, elem in enumerate(perm):
        rank[elem] = r
    w = WeightRanking(tuple(rank))
    c = greedy_chain(p, w)
    for a, b in zip(c, c[1:]):
        assert p.lt[a, b]
        assert w.rank[a] < w.rank[b]
    assert c[-1] in p.maximal


@given(posets_strategy, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_single_scan_equals_recursion(p, rnd):
    """Scanning elements lightest-first and jumping on any strict rise lands
    on the same element as the definitional recursion."""
    perm = list(range(p.n))
    rnd.shuffle(perm)
    rank = [0] * p.n
    for r, elem in enumerate(perm):
        rank[elem] = r
    w = WeightRanking(tuple(rank))
    z = perm[0]
    for e in perm[1:]:
        if p.lt[z, e]:
            z = e
    assert z == greedy_maximum(p, w)


@pytest.mark.parametrize("p", small_posets())
def test_greedy_scan_matches_recursion_on_members(p):
    """The bitmask greedy scan (through batch_greedy_maximum, every element a
    member) against the recursion on the full poset, row by row."""
    rng = np.random.default_rng(p.n)
    order = np.array([rng.permutation(p.n) for _ in range(200)])
    rank = np.argsort(order, axis=1)
    full = batch_greedy_maximum(p, rank.astype(float))
    for b in range(200):
        assert full[b] == greedy_maximum(p, WeightRanking(tuple(rank[b])))


@given(posets_strategy)
@settings(max_examples=50, deadline=None)
def test_mu_is_a_distribution_on_maximals(p):
    mu = mu_exact(p)
    assert sum(mu.values) == 1
    for x in range(p.n):
        assert mu[x] >= 0
        if x not in p.maximal:
            assert mu[x] == 0
