import itertools
import math

import numpy as np
import pytest

from poset_secretary.engine import batch_tag_matrix
from poset_secretary.errors import DimensionError
from poset_secretary.families import antichain, chain, forest_of_chains, wedge
from poset_secretary.greedy import WeightRanking, greedy_maximum
from poset_secretary.posets import SubsetMap, from_relations, induced_subposet
from poset_secretary.simulate import (
    TAU_DEFAULT,
    Trial,
    run_strategy,
    sample_trial,
    tag_sequence,
)


def trial(times, weights):
    return Trial(np.asarray(times, dtype=float), np.asarray(weights, dtype=float))


class TestTrial:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            trial([0.1, 0.2], [0.3])
        with pytest.raises(ValueError):
            Trial(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            trial([], [])

    def test_validates_range(self):
        with pytest.raises(ValueError):
            trial([1.2], [0.5])
        with pytest.raises(ValueError):
            trial([0.5], [-0.1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="arrival_times must lie in"):
                trial([bad, 0.5, 0.2], [0.1, 0.2, 0.3])
            with pytest.raises(ValueError, match="weights must lie in"):
                trial([0.1, 0.2, 0.3], [0.1, bad, 0.3])

    def test_arrays_locked(self):
        t = trial([0.1, 0.9], [0.5, 0.6])
        with pytest.raises(ValueError):
            t.arrival_times[0] = 0.0

    def test_arrival_order_breaks_ties_by_index(self):
        t = trial([0.5, 0.5, 0.1], [0.1, 0.2, 0.3])
        assert t.arrival_order().tolist() == [2, 0, 1]


class TestSampling:
    def test_sample_trial_shapes_and_determinism(self):
        a = sample_trial(6, np.random.default_rng(9))
        b = sample_trial(6, np.random.default_rng(9))
        assert a.n == 6
        assert np.array_equal(a.arrival_times, b.arrival_times)
        assert np.array_equal(a.weights, b.weights)

    def test_sample_trial_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_trial(0, np.random.default_rng(0))

    def test_times_look_uniform(self):
        rng = np.random.default_rng(31)
        means = [sample_trial(20, rng).arrival_times.mean() for _ in range(500)]
        assert abs(float(np.mean(means)) - 0.5) < 0.01


class TestTagSequence:
    def test_singleton_always_tagged(self):
        evs = tag_sequence(chain(1), trial([0.7], [0.3]))
        assert len(evs) == 1 and evs[0].tagged and evs[0].element == 0

    def test_first_arrival_always_tagged(self):
        for seed in range(20):
            p = wedge() if seed % 2 else antichain(5)
            tr = sample_trial(p.n, np.random.default_rng(seed))
            assert tag_sequence(p, tr)[0].tagged

    def test_two_chain_later_element_tagged_iff_above(self):
        p = chain(2)
        # 0 arrives, then 1: exposed order is 0 < 1 so 1 is greedy max
        evs = tag_sequence(p, trial([0.2, 0.6], [0.9, 0.1]))
        assert [(e.element, e.tagged) for e in evs] == [(0, True), (1, True)]
        # 1 arrives, then 0: 0 is below the already-present 1, never tagged
        evs = tag_sequence(p, trial([0.6, 0.2], [0.9, 0.1]))
        assert [(e.element, e.tagged) for e in evs] == [(1, True), (0, False)]

    def test_antichain_tagged_iff_lightest_so_far(self):
        p = antichain(4)
        tr = trial([0.1, 0.2, 0.3, 0.4], [0.5, 0.7, 0.2, 0.3])
        tags = [e.tagged for e in tag_sequence(p, tr)]
        # running minima of the weights in arrival order
        assert tags == [True, False, True, False]

    def test_matches_induced_greedy_maximum(self):
        p = from_relations(5, [(0, 2), (1, 2), (2, 4), (3, 4)])
        rng = np.random.default_rng(5)
        for _ in range(50):
            tr = sample_trial(5, rng)
            order = tr.arrival_order()
            for k, ev in enumerate(tag_sequence(p, tr)):
                exposed = tuple(sorted(int(i) for i in order[: k + 1]))
                sub = induced_subposet(p, SubsetMap(exposed))
                w = WeightRanking.from_weights(tr.weights[list(exposed)])
                want = exposed[greedy_maximum(sub, w)] == ev.element
                assert ev.tagged == want

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tag_sequence(chain(3), trial([0.1], [0.2]))


class TestRunStrategy:
    def test_accepts_first_tag_after_threshold(self):
        p = antichain(3)
        # arrivals: 0@0.2 (tagged), 1@0.5 (lighter, tagged), 2@0.8 (heavier)
        out = run_strategy(p, trial([0.2, 0.5, 0.8], [0.5, 0.3, 0.9]), tau=0.4)
        assert out.accepted == 1 and out.accept_time == 0.5 and out.success

    def test_acceptance_needs_strictly_later_time(self):
        p = chain(1)
        out = run_strategy(p, trial([0.4], [0.5]), tau=0.4)
        assert out.accepted is None and not out.success

    def test_no_tag_after_threshold_means_no_acceptance(self):
        p = chain(2)
        # top arrives first; the bottom, arriving after tau, is never tagged
        out = run_strategy(p, trial([0.9, 0.1], [0.2, 0.7]), tau=0.5)
        assert out.accepted is None and out.accept_time is None and not out.success

    def test_one_tag_after_tau_can_still_fail(self):
        # forest:2,2 (0 < 1, 2 < 3): the only tag is the first arrival, 0, and
        # neither it nor the last tag is the greedy maximum 3, so exactly one
        # tag after tau does not imply success
        p = forest_of_chains([2, 2])
        t = trial([0.1, 0.4, 0.3, 0.2], [0.2, 0.3, 0.1, 0.4])
        assert [ev.element for ev in tag_sequence(p, t) if ev.tagged] == [0]
        _, tagged = batch_tag_matrix(p, t.arrival_times[None], t.weights[None])
        assert tagged.tolist() == [[True, False, False, False]]
        assert greedy_maximum(p, WeightRanking.from_weights(t.weights)) == 3
        out = run_strategy(p, t, tau=0.05)
        assert out.accepted == 0 and not out.success

    def test_the_last_tag_is_not_always_maximal(self):
        # all 24 x 24 order pairs of forest:2,2: 12 end on a non-maximal tag
        p = forest_of_chains([2, 2])
        perms = np.array(list(itertools.permutations(range(4))), dtype=float)
        times, weights = np.repeat(perms, 24, axis=0), np.tile(perms, (24, 1))
        _, tagged = batch_tag_matrix(p, times, weights)
        last = np.where(tagged, times, -1.0).argmax(axis=1)
        assert np.count_nonzero(~p.is_maximal[last]) == 12

    def test_success_requires_maximal(self):
        p = chain(2)
        # bottom arrives first and alone after tau: tagged and accepted,
        # but it is not maximal in the full order
        out = run_strategy(p, trial([0.6, 0.9], [0.1, 0.9]), tau=0.5)
        assert out.accepted == 0 and not out.success

    def test_tau_zero_accepts_first_arrival(self):
        out = run_strategy(antichain(3), trial([0.3, 0.5, 0.9], [0.9, 0.2, 0.4]), tau=0.0)
        assert out.accepted == 0  # first arrival is always tagged

    def test_tau_validated(self):
        tr = trial([0.5], [0.5])
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                run_strategy(chain(1), tr, tau=bad)

    def test_log_covers_all_arrivals_in_time_order(self):
        tr = sample_trial(6, np.random.default_rng(3))
        out = run_strategy(antichain(6), tr)
        assert len(out.log) == 6
        times = [e.time for e in out.log]
        assert times == sorted(times)
        assert {e.element for e in out.log} == set(range(6))

    def test_default_threshold_is_one_over_e(self):
        assert TAU_DEFAULT == pytest.approx(1 / math.e, abs=0)

