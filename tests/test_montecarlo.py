"""Monte Carlo drivers: estimates, sweeps, and the distributional checks.

Statistical assertions here run at moderate trial counts with pinned seeds;
the million-trial battery lives in the acceptance tests.
"""

import math
import multiprocessing
import os
import tracemalloc
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

from poset_secretary import engine, greedy, montecarlo
from poset_secretary.engine import CHUNK_TRIALS, SIM_CAP, batch_tag_matrix
from poset_secretary.errors import NotMaximalError, TooLargeError, ZeroTrialsError
from poset_secretary.families import antichain, boolean_lattice, chain, random_poset, wedge
from poset_secretary.greedy import WeightRanking, greedy_maximum, mu_exact
from poset_secretary.montecarlo import (
    LAST_TAG_TIMES,
    LEMMAS,
    PINNED_TIMES,
    Estimate,
    _run_chunks,
    empirical_greedy_max,
    estimate_success,
    threshold_sweep,
    verify_last_tag_uniform,
    verify_lemmas,
    verify_tag_independence,
    verify_tag_joint,
    verify_tag_marginals,
    verify_tagged_given_arrival,
    wilson_interval,
)
from poset_secretary.posets import Poset
from poset_secretary.simulate import Trial, tag_sequence

TRIALS = 40_000


class TestSimulationCap:
    @pytest.mark.parametrize(
        "check",
        [
            lambda p: estimate_success(p, trials=10),
            lambda p: threshold_sweep(p, [0.2, 0.5], trials=10),
            lambda p: verify_tag_marginals(p, trials=10),
            lambda p: verify_tag_independence(p, trials=10),
            lambda p: verify_last_tag_uniform(p, 0.5, trials=10),
            lambda p: verify_tagged_given_arrival(p, 0, 0.5, trials=10),
        ],
    )
    def test_refused_before_any_chunk_is_drawn(self, check, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk above the simulation cap")

        monkeypatch.setattr(engine, "_philox", no_draws)
        with pytest.raises(TooLargeError, match="cap"):
            check(antichain(SIM_CAP + 1))


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(630, 1000)
        assert low < 0.63 < high

    def test_tightens_with_trials(self):
        l1, h1 = wilson_interval(63, 100)
        l2, h2 = wilson_interval(6300, 10000)
        assert (h2 - l2) < (h1 - l1)

    def test_edge_counts_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and 0 < high < 0.2
        low, high = wilson_interval(50, 50)
        assert 0.8 < low < 1 and high == 1.0
        # the rounded formula misses these endpoints by an ulp, unclamped
        for successes, trials in [(0, 4), (4, 4), (7, 7), (0, 9)]:
            low, high = wilson_interval(successes, trials)
            p_hat = successes / trials
            assert 0.0 <= low <= p_hat <= high <= 1.0
            assert (low, high)[successes == trials] == p_hat
            Estimate(successes, trials, p_hat, low, high, 0, 0.5)

    def test_validates_inputs(self):
        with pytest.raises(ZeroTrialsError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestEstimate:
    def test_deterministic_and_worker_independent(self):
        a = estimate_success(wedge(), 0.4, TRIALS, master_seed=3)
        b = estimate_success(wedge(), 0.4, TRIALS, master_seed=3)
        c = estimate_success(wedge(), 0.4, TRIALS, master_seed=3, workers=4)
        assert a == b == c

    def test_seed_changes_stream(self):
        a = estimate_success(wedge(), 0.4, TRIALS, master_seed=3)
        b = estimate_success(wedge(), 0.4, TRIALS, master_seed=4)
        assert a.successes != b.successes

    def test_philox_draws_take_no_stable_sort(self, monkeypatch):
        # the Monte Carlo path orders rows by unique integer keys; only
        # batch_tag_matrix, for caller arrays, takes the stable argsort
        want = estimate_success(chain(20), 0.4, TRIALS, master_seed=3, workers=1)
        lemma_2 = verify_lemmas(chain(20), ["2"], TRIALS, master_seed=3, workers=1)
        times, weights = engine.chunk_uniforms(20, 3, 0, 100)

        class Argsort(Exception):
            pass

        def argsort(*args, **kwargs):
            raise Argsort

        monkeypatch.setattr(np, "argsort", argsort)
        monkeypatch.setattr(engine, "_stable_argsort", argsort)
        assert estimate_success(chain(20), 0.4, TRIALS, master_seed=3, workers=1) == want
        assert verify_lemmas(chain(20), ["2"], TRIALS, master_seed=3, workers=1) == lemma_2
        with pytest.raises(Argsort):
            batch_tag_matrix(chain(20), times, weights)

    def test_singleton_closed_form(self):
        est = estimate_success(chain(1), 1 / math.e, 100_000, master_seed=0)
        assert est.p_hat == pytest.approx(1 - 1 / math.e, abs=0.006)
        assert est.ci_low < 1 - 1 / math.e < est.ci_high

    def test_zero_trials_rejected(self):
        with pytest.raises(ZeroTrialsError):
            estimate_success(chain(1), 0.5, 0)

    def test_invalid_tau_rejected(self):
        for bad in (-0.5, 1.0, 2.0):
            with pytest.raises(ValueError):
                estimate_success(chain(1), bad, 100)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Estimate(
                successes=10, trials=100, p_hat=0.5, ci_low=0.0, ci_high=1.0,
                master_seed=0, tau=0.3,
            )


class TestSweep:
    def test_one_point_sweep_equals_estimate(self):
        [swept] = threshold_sweep(wedge(), [0.4], TRIALS, master_seed=3)
        assert swept == estimate_success(wedge(), 0.4, TRIALS, master_seed=3)

    def test_rows_share_trials_and_seed(self):
        rows = threshold_sweep(antichain(3), [0.1, 0.5, 0.8], TRIALS, master_seed=2)
        assert [r.tau for r in rows] == [0.1, 0.5, 0.8]
        assert all(r.trials == TRIALS and r.master_seed == 2 for r in rows)

    def test_common_random_numbers_smooth_the_curve(self):
        # success sets are nested as tau grows past arrivals, so with shared
        # trials the curve is monotone wherever the true curve is; at the
        # very least neighbouring estimates move far less than independent
        # ones would. Weak check: p_hat differences bounded by the tau gap
        # plus slack.
        taus = [0.30, 0.31, 0.32]
        rows = threshold_sweep(chain(1), taus, TRIALS, master_seed=9)
        for a, b in zip(rows, rows[1:]):
            assert abs(a.p_hat - b.p_hat) < 0.02

    def test_rejects_empty_and_invalid(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk for an invalid sweep")

        monkeypatch.setattr(engine, "_philox", no_draws)
        with pytest.raises(ValueError):
            threshold_sweep(chain(1), [0.2, 1.0], 100)
        with pytest.raises(ValueError):
            threshold_sweep(chain(1), [], 100)


class TestGreedyMaxSampling:
    def test_counts_match_exact_mu(self):
        p = random_poset(6, 0.4, seed=3)
        samples = 60_000
        counts = empirical_greedy_max(p, samples, master_seed=5)
        mu = mu_exact(p)
        assert int(counts.sum()) == samples
        for x in range(p.n):
            ref = float(mu[x])
            se = math.sqrt(ref * (1 - ref) / samples) if 0 < ref < 1 else 0.0
            assert abs(counts[x] / samples - ref) <= max(5 * se, 1e-12)

    def test_deterministic_across_workers(self):
        p = wedge()
        a = empirical_greedy_max(p, 30_000, master_seed=1)
        b = empirical_greedy_max(p, 30_000, master_seed=1, workers=3)
        assert np.array_equal(a, b)

    def test_over_the_size_cap_is_refused_before_any_draw(self, monkeypatch):
        # the order keys hold 6 index bits: a larger poset would be miscounted
        def no_draws(*args):
            raise AssertionError("drew a chunk for a poset over the size cap")

        monkeypatch.setattr(engine, "_philox", no_draws)
        with pytest.raises(TooLargeError):
            empirical_greedy_max(chain(SIM_CAP + 1), 1000)

    def test_chunk_counts_equal_the_stable_order_of_the_chunk_draw(self):
        # at n = 64 the pinned scan reads the top bit of a uint64 mask, and a
        # chain's greedy maximum is always its top element, bit 63
        rows = 2 * engine._SUB_BATCH + 5
        for p in (random_poset(12, 0.3, seed=4), random_poset(64, 0.1, seed=3), chain(64)):
            _, weights = engine.chunk_uniforms(p.n, 6, 0, rows)
            got = engine.batch_greedy_maximum(p, weights)
            for b in range(0, rows, 41):
                assert got[b] == greedy_maximum(p, WeightRanking.from_weights(weights[b]))
            want = np.bincount(got, minlength=p.n)
            assert np.array_equal(empirical_greedy_max(p, rows, 6), want)
        assert want[63] == rows

    @pytest.mark.parametrize("p", [wedge(), random_poset(8, 0.3, seed=42), chain(64)])
    def test_counts_are_lemma_4_pinned_at_one(self, p):
        # x pinned at t = 1 arrives after every other element, so it is
        # tagged iff it is the greedy maximum: the same hits, trial for trial
        trials, seed = 20_000, 3
        counts = empirical_greedy_max(p, trials, seed)
        for x in range(p.n):
            if x in p.maximal:
                rep = verify_tagged_given_arrival(p, x, 1.0, trials, seed)
                assert counts[x] / trials == rep.observed
            else:
                assert counts[x] == 0


class TestMarginals:
    def test_all_positions_pass_on_null(self):
        p = random_poset(6, 0.4, seed=3)
        reports = verify_tag_marginals(p, TRIALS, master_seed=1)
        assert len(reports) == 6
        assert all(r.passed for r in reports)
        assert reports[0].observed == 1.0  # first arrival always tagged

    def test_statistic_names_and_refs(self):
        reports = verify_tag_marginals(chain(3), TRIALS, master_seed=0)
        assert [r.statistic for r in reports] == [
            "tag_marginal[k=1]", "tag_marginal[k=2]", "tag_marginal[k=3]",
        ]
        assert [r.reference for r in reports] == pytest.approx([1.0, 0.5, 1 / 3])

    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError):
            verify_tag_marginals(chain(5), 200, master_seed=0)


class TestIndependence:
    def test_pairwise_on_null(self):
        p = random_poset(6, 0.4, seed=3)
        reports = verify_tag_independence(p, TRIALS, master_seed=1)
        assert len(reports) == 15  # C(6,2)
        assert all(r.passed for r in reports)

    def test_first_position_pairs_are_degenerate(self):
        reports = verify_tag_independence(chain(4), TRIALS, master_seed=2)
        k1 = [r for r in reports if "[j=1," in r.statistic]
        assert k1 and all(r.p_value is None and r.passed for r in k1)

    @pytest.mark.parametrize("p", [random_poset(8, 0.3, seed=42), random_poset(12, 0.3, seed=4)])
    def test_tallies_equal_the_counts_built_per_trial(self, p):
        # the pair and pattern tallies read the flags in the kernel's arrival
        # order and add over the chunk's two pieces; the reference rebuilds
        # every row's flags from tag_sequence
        seed, chunk, rows = 5, 2, engine._SUB_BATCH + 5
        reducers = (montecarlo._tag_pair_counts, montecarlo._tag_pattern_counts)
        pairs, pattern = montecarlo._tag_chunk(p, reducers, seed, chunk, rows)
        times, weights = engine.chunk_uniforms(p.n, seed, chunk, rows)
        flags = np.array(
            [[e.tagged for e in tag_sequence(p, Trial(t, w))] for t, w in zip(times, weights)],
            dtype=np.int64,
        )
        assert np.array_equal(pairs, flags.T @ flags)
        patterns = np.bincount(flags @ (1 << np.arange(p.n)), minlength=1 << p.n)
        assert np.array_equal(pattern, patterns)

    def test_joint_pattern_law(self):
        for p in (chain(1), antichain(4), random_poset(5, 0.5, seed=7)):
            rep = verify_tag_joint(p, TRIALS, master_seed=6)
            assert rep.passed, rep

    def test_joint_capped(self):
        with pytest.raises(TooLargeError):
            verify_tag_joint(chain(13), 13_000, master_seed=0)


class TestLastTagUniform:
    @pytest.mark.parametrize("t", LAST_TAG_TIMES)
    def test_a_chunk_tally_is_its_samples_in_row_order(self, t):
        # two pieces, joined in row order: the kernel's values on the whole
        # chunk draw, the trials with no arrival before t left out
        p, seed, chunk, rows = random_poset(8, 0.3, seed=42), 5, 2, engine._SUB_BATCH + 5
        reducers = (partial(montecarlo._last_tag_values, t),)
        [samples] = montecarlo._tag_chunk(p, reducers, seed, chunk, rows)
        times, weights = engine.chunk_uniforms(p.n, seed, chunk, rows)
        _, tagged = batch_tag_matrix(p, times, weights)
        want = engine.batch_last_tag_time(times, tagged, t)
        assert len(samples) == 2
        got = np.concatenate(samples)
        assert np.array_equal(got.view(np.uint64), want[~np.isnan(want)].view(np.uint64))

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_uniform_on_null(self, t):
        rep = verify_last_tag_uniform(boolean_lattice(2), t, TRIALS, master_seed=2)
        assert rep.passed and rep.p_value > 0.001
        assert rep.sample_size <= TRIALS

    def test_sample_excludes_empty_prefixes(self):
        rep = verify_last_tag_uniform(chain(2), 0.05, 5_000, master_seed=3)
        # most trials have no arrival before 0.05 and are dropped
        assert rep.sample_size < 5_000

    def test_t_validated(self):
        with pytest.raises(ValueError):
            verify_last_tag_uniform(chain(2), 0.0, 100)
        with pytest.raises(ValueError):
            verify_last_tag_uniform(chain(2), 1.5, 100)


class TestPinnedArrival:
    def test_matches_exact_mu_t(self):
        from poset_secretary.posets import from_relations

        p = from_relations(3, [(0, 1)])
        rep = verify_tagged_given_arrival(p, 1, 0.5, TRIALS, master_seed=4)
        assert rep.reference == pytest.approx(19 / 24)
        assert rep.passed

    def test_t_edges(self):
        p = antichain(2)
        rep = verify_tagged_given_arrival(p, 0, 1.0, TRIALS, master_seed=1)
        assert rep.reference == pytest.approx(0.5)
        assert rep.passed

    def test_requires_maximal(self):
        with pytest.raises(NotMaximalError):
            verify_tagged_given_arrival(chain(3), 0, 0.5, 1000)

    def test_validates_t_and_element(self):
        with pytest.raises(ValueError):
            verify_tagged_given_arrival(antichain(2), 0, -0.5, 1000)
        with pytest.raises(IndexError):
            verify_tagged_given_arrival(antichain(2), 5, 0.5, 1000)

    def test_pins_are_checked_before_the_table_is_built(self, monkeypatch):
        def no_table(p):
            raise AssertionError("built the density table for an invalid pin")

        monkeypatch.setattr(greedy, "_visit_densities", no_table)
        p = random_poset(64, 0.1, seed=3)
        top = min(p.maximal)
        below = next(x for x in range(p.n) if x not in p.maximal)
        with pytest.raises(ValueError, match="t must lie"):
            verify_tagged_given_arrival(p, top, 2.0, 1000)
        with pytest.raises(IndexError):
            verify_tagged_given_arrival(p, p.n, 0.5, 1000)
        with pytest.raises(NotMaximalError):
            verify_tagged_given_arrival(p, below, 0.5, 1000)


def pinned_reference(p, x, t, times, weights):
    """x's tag flag per row with its arrival time replaced by t, read from the
    full tag matrix's column for x."""
    times = times.copy()
    times[:, x] = t
    _, tagged = batch_tag_matrix(p, times, weights)
    return tagged[:, x]


PINNED_SCAN_POSETS = [
    chain(1),
    chain(8),
    Poset(8, chain(8).lt.T.copy()),  # 0 on top: ties at t favour the higher elements
    antichain(8),
    random_poset(8, 0.3, seed=1),
    chain(13),
    antichain(13),
    random_poset(13, 0.4, seed=2),
    chain(64),
    antichain(64),
    random_poset(64, 0.1, seed=3),
    # several series parts, the top one a block or a post
    wedge(),
    boolean_lattice(3),
    random_poset(20, 0.5, seed=1),
    Poset(20, random_poset(20, 0.5, seed=1).lt.T.copy()),
]


def assert_quantised_pins_match(p, quantum, series):
    """Every maximal pin's flags, scanned over the stable weight order or the
    series order, against the full tag matrix, on times and weights quantised
    to 1/quantum."""
    rng = np.random.default_rng(p.n * quantum)
    times = np.floor(rng.random((200, p.n)) * quantum) / quantum
    weights = np.floor(rng.random((200, p.n)) * quantum) / quantum
    if series:
        worder = batch_tag_matrix(p, times, weights)[0]
    else:
        worder = np.argsort(weights, axis=1, kind="stable")
    pins = [(x, t) for x in sorted(p.maximal) for t in (0.0, 0.25, 0.5, 1.0)]
    got = engine.batch_pinned_tags(p, pins, times, worder)
    assert got.shape == (len(pins), 200)
    for (x, t), flags in zip(pins, got):
        assert np.array_equal(flags, pinned_reference(p, x, t, times, weights)), (x, t)


class TestPinnedScan:
    @pytest.mark.parametrize("p", PINNED_SCAN_POSETS)
    @pytest.mark.parametrize("quantum", [4, 8])
    def test_masked_scan_matches_full_tag_matrix(self, p, quantum):
        # times and weights on a grid of 1/quantum, so both kinds of tie occur;
        # every pin goes into one call, so pins at one t share a group
        assert_quantised_pins_match(p, quantum, series=False)

    @pytest.mark.parametrize("p", PINNED_SCAN_POSETS)
    @pytest.mark.parametrize("quantum", [4, 8])
    def test_the_series_order_gives_the_same_flags(self, p, quantum):
        # the kernel's series order, which chunk_tags hands to lemma 4
        assert_quantised_pins_match(p, quantum, series=True)

    @pytest.mark.parametrize("p", PINNED_SCAN_POSETS)
    def test_philox_pins_at_one_t_share_one_scan(self, p, monkeypatch):
        scans = []

        def counted(bitw, upw, member, _scan=engine._passed_mask):
            scans.append(member)
            return _scan(bitw, upw, member)

        monkeypatch.setattr(engine, "_passed_mask", counted)
        times, weights = engine.chunk_uniforms(p.n, 17, 0, 500)
        worder, _ = batch_tag_matrix(p, times, weights)
        pins = [(x, t) for x in sorted(p.maximal) for t in PINNED_TIMES]
        got = engine.batch_pinned_tags(p, pins, times, worder)
        assert len(scans) == len(PINNED_TIMES)
        for (x, t), flags in zip(pins, got):
            assert np.array_equal(flags, pinned_reference(p, x, t, times, weights)), (x, t)


class TestVerifyLemmas:
    def test_one_pass_equals_the_per_lemma_functions(self):
        p = random_poset(6, 0.4, seed=3)
        trials, seed = CHUNK_TRIALS + 500, 7  # two chunks, so the pool runs
        want = verify_tag_marginals(p, trials, seed)
        want += verify_tag_independence(p, trials, seed)
        want += [verify_last_tag_uniform(p, t, trials, seed) for t in LAST_TAG_TIMES]
        want += [verify_tagged_given_arrival(p, x, t, trials, seed)
                 for x in sorted(p.maximal) for t in PINNED_TIMES]
        got = verify_lemmas(p, LEMMAS, trials, seed, workers=2)
        assert got[:-1] == want
        assert got[-1].statistic == "mu_monotonicity" and got[-1].passed

    def test_each_chunk_is_drawn_and_tagged_once(self, monkeypatch):
        calls = {"_philox": 0, "chunk_tags": 0}
        for name in calls:
            def counted(*args, _fn=getattr(engine, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(engine, name, counted)
        verify_lemmas(wedge(), LEMMAS, CHUNK_TRIALS + 1, master_seed=0)
        assert calls == {"_philox": 2, "chunk_tags": 2}
        calls.update(_philox=0, chunk_tags=0)
        empirical_greedy_max(wedge(), CHUNK_TRIALS + 1, master_seed=0)
        assert calls == {"_philox": 2, "chunk_tags": 2}

    def test_pinned_references_come_from_one_table(self, monkeypatch):
        calls = []

        def counted(p, _fn=greedy._visit_densities):
            calls.append(p)
            return _fn(p)

        monkeypatch.setattr(greedy, "_visit_densities", counted)
        p = random_poset(8, 0.3, seed=42)
        reports = verify_lemmas(p, ["4"], 2_000, master_seed=0)
        assert len(reports) == len(p.maximal) * len(PINNED_TIMES) > 1
        assert len(calls) == 1

    def test_exact_lemma_alone_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk for an exact-only check")

        monkeypatch.setattr(engine, "_philox", no_draws)
        [rep] = verify_lemmas(wedge(), ["5"], trials=0)
        assert rep.statistic == "mu_monotonicity" and rep.passed

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            verify_lemmas(wedge(), ["2", "6"], trials=6_000)


class TestWorkSkipped:
    """A pass builds only the piece fields its reducers read."""

    def test_a_pins_only_pass_runs_no_tag_kernel(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("ran the tag kernel for checks that read no tag flags")

        monkeypatch.setattr(engine, "_tag_sub_batch", no_kernel)
        p = random_poset(8, 0.3, seed=42)
        assert empirical_greedy_max(p, 2_000, master_seed=0).sum() == 2_000
        reports = verify_lemmas(p, ["4"], 2_000, master_seed=0)
        assert len(reports) == len(p.maximal) * len(PINNED_TIMES)

    def test_an_all_post_simulate_sorts_only_its_time_keys(self, monkeypatch):
        # a chain has no block, so its tags are test (b) alone and no piece
        # builds the series order: one key sort per piece, by arrival
        sorted_keys = []

        def recorded(keys, _fn=engine._key_order):
            sorted_keys.append(keys)
            return _fn(keys)

        monkeypatch.setattr(engine, "_key_order", recorded)
        rows = 2 * engine._SUB_BATCH + 5
        estimate_success(chain(20), trials=rows, master_seed=3)
        assert len(sorted_keys) == 3
        times, _ = engine.chunk_uniforms(20, 3, 0, rows)
        drawn = (np.concatenate(sorted_keys) >> 6) * 2.0**-53
        assert np.array_equal(drawn.view(np.uint64), times.view(np.uint64))


class TestChunkFootprint:
    @pytest.mark.parametrize("p", [chain(20), antichain(64)])
    def test_a_chunk_pass_peaks_below_twice_its_times(self, p):
        # the bound a pass held while it kept the chunk's float64 times: the
        # success, lemma-4 and greedy reducers stay well inside it
        pins = [(x, t) for x in sorted(p.maximal) for t in PINNED_TIMES]
        reducers = (
            partial(montecarlo._success_counts, p.is_maximal, (0.3679,)),
            partial(montecarlo._pinned_hits, p, pins),
            # empirical_greedy_max's reducer: every maximal element pinned at 1
            partial(montecarlo._pinned_hits, p, [(x, 1.0) for x in sorted(p.maximal)]),
        )
        tracemalloc.start()
        try:
            montecarlo._tag_chunk(p, reducers, 0, 0, CHUNK_TRIALS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * CHUNK_TRIALS * p.n * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("p", [chain(20), antichain(64)])
    def test_a_chunk_pass_peaks_below_one_chunk_of_float64_times(self, p):
        # every reducer kind takes the chunk one piece at a time, so no array
        # of the chunk's size is built: the peak is the piece's temporaries
        # and the tallies, below what the chunk's times alone would take
        pins = [(x, t) for x in sorted(p.maximal) for t in PINNED_TIMES]
        reducers = (
            partial(montecarlo._success_counts, p.is_maximal, (0.25, 0.3679)),
            montecarlo._tag_pair_counts,
            *(partial(montecarlo._last_tag_values, t) for t in LAST_TAG_TIMES),
            partial(montecarlo._pinned_hits, p, pins),
            # empirical_greedy_max's reducer: every maximal element pinned at 1
            partial(montecarlo._pinned_hits, p, [(x, 1.0) for x in sorted(p.maximal)]),
        )
        tracemalloc.start()
        try:
            montecarlo._tag_chunk(p, reducers, 0, 0, CHUNK_TRIALS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_TRIALS * p.n * np.dtype(np.float64).itemsize


class TestDeterminismAcrossChunks:
    def test_partial_chunks_do_not_depend_on_layout(self):
        # trials just over one chunk boundary: totals must equal the sum of
        # what the canonical chunks contribute, whatever the worker count
        from poset_secretary.engine import CHUNK_TRIALS

        trials = CHUNK_TRIALS + 123
        a = estimate_success(antichain(3), 0.3, trials, master_seed=11, workers=1)
        b = estimate_success(antichain(3), 0.3, trials, master_seed=11, workers=2)
        assert a == b


class TestPoolSize:
    @staticmethod
    def inline_pool(sizes):
        class InlinePool:
            """Stands in for ProcessPoolExecutor: records its size, runs tasks in-process."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        return InlinePool

    def test_the_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", self.inline_pool(sizes))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        trials = 2 * CHUNK_TRIALS + 4464  # three chunks
        got = _run_chunks(lambda c, rows: (c, rows), trials, workers=64)
        assert got == engine.chunk_layout(trials)
        assert _run_chunks(lambda c, rows: (c, rows), trials, workers=2) == got
        assert sizes == [3, 2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus,sizes", [({5, 7}, [2]), ({3}, [])])
    def test_the_pool_has_no_more_workers_than_usable_cpus(self, monkeypatch, cpus, sizes):
        pools = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", self.inline_pool(pools))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: cpus)
        trials = 40 * CHUNK_TRIALS  # forty chunks: one CPU runs them in-process
        got = _run_chunks(lambda c, rows: (c, rows), trials, workers=100_000)
        assert got == engine.chunk_layout(trials)
        assert pools == sizes
        assert multiprocessing.active_children() == []

    def test_without_an_affinity_set_the_cpu_count_caps_the_pool(self, monkeypatch):
        pools = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", self.inline_pool(pools))
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        for count, size in [(3, [3]), (None, [])]:  # an unknown count is one CPU
            pools.clear()
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: count)
            assert _run_chunks(lambda c, rows: c, 5 * CHUNK_TRIALS, workers=8) == [0, 1, 2, 3, 4]
            assert pools == size


def _placement(chunk, rows):
    return os.getpid(), frozenset(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
class TestWorkerPlacement:
    def test_each_worker_runs_on_its_own_allowed_cpu(self):
        allowed = os.sched_getaffinity(0)
        placed = dict(_run_chunks(_placement, 4 * CHUNK_TRIALS, workers=2))
        assert all(len(cpus) == 1 and cpus <= allowed for cpus in placed.values())
        if len(allowed) >= len(placed):
            assert len(set(placed.values())) == len(placed)
        assert os.sched_getaffinity(0) == allowed  # the caller itself stays unpinned
