"""Monte Carlo drivers: estimates, sweeps, and the distributional checks.

Statistical assertions here run at moderate trial counts with pinned seeds;
the million-trial battery lives in the acceptance tests.
"""

import itertools
import math
import mmap
import os
import pickle
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from poset_secretary import engine, greedy, montecarlo, pvalues
from poset_secretary.engine import CHUNK_TRIALS, SIM_CAP, batch_tag_matrix
from poset_secretary.errors import NotMaximalError, TooLargeError, ZeroTrialsError
from poset_secretary.families import (
    antichain,
    boolean_lattice,
    chain,
    parse_generator_spec,
    random_poset,
    wedge,
)
from poset_secretary.greedy import WeightRanking, greedy_maximum, mu_exact
from poset_secretary.montecarlo import (
    LAST_TAG_TIMES,
    LEMMAS,
    PINNED_TIMES,
    Estimate,
    LemmaReport,
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

from helpers import _a_ignores_arrival, _b_only, tag_keys_of, time_keys_of

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

    def test_a_non_integer_seed_is_refused_before_any_draw(self, monkeypatch):
        # the Philox key is a uint64 word, which would truncate 1.5 to seed 1
        want = estimate_success(chain(3), trials=5000, master_seed=1)
        assert estimate_success(chain(3), trials=5000, master_seed=np.uint64(1)) == want

        def no_draws(*args):
            raise AssertionError("drew a chunk before checking the seed")

        monkeypatch.setattr(engine, "_philox", no_draws)
        with pytest.raises(TypeError, match="integer"):
            estimate_success(chain(3), trials=5000, master_seed=1.5)

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

    def test_confidence_is_the_level_of_the_interval_not_a_field(self):
        # wilson_interval has one level, so an Estimate cannot claim another
        est = estimate_success(wedge(), 0.4, 1000, master_seed=3)
        assert est.confidence == montecarlo.CONFIDENCE_DEFAULT
        with pytest.raises(TypeError):
            Estimate(est.successes, est.trials, est.p_hat, est.ci_low, est.ci_high, 3, 0.4, 0.5)


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
        # the pair tally reads the flags in the kernel's arrival order and
        # adds over the chunk's two pieces; the reference rebuilds every
        # row's flags from tag_sequence
        seed, chunk, rows = 5, 2, engine._SUB_BATCH + 5
        [pairs] = montecarlo._tag_chunk(p, (montecarlo._tag_pair_counts,), seed, chunk, rows)
        times, weights = engine.chunk_uniforms(p.n, seed, chunk, rows)
        flags = np.array(
            [[e.tagged for e in tag_sequence(p, Trial(t, w))] for t, w in zip(times, weights)],
            dtype=np.int64,
        )
        assert np.array_equal(pairs, flags.T @ flags)

    def test_joint_pattern_law(self):
        for p in (chain(1), antichain(4), random_poset(5, 0.5, seed=7)):
            rep = verify_tag_joint(p, master_seed=6)
            assert rep.passed and rep.observed == 0 and rep.p_value is None, rep
            assert rep.sample_size == math.factorial(p.n)

    @pytest.mark.parametrize(
        "mutant,specs",
        [
            (None, ["chain:7", "antichain:7", "wedge", "boolean:3", "random:8:0.3:42"]),
            # on a chain (b) alone is the true kernel, so a chain cannot fail it
            (_b_only, ["antichain:7", "wedge", "boolean:3", "random:8:0.3:42"]),
            (_a_ignores_arrival, ["antichain:7", "wedge", "boolean:3", "random:8:0.3:42"]),
        ],
        ids=["kernel", "b_only", "a_ignores_arrival"],
    )
    def test_the_exact_joint_law_fails_a_wrong_tag_kernel(self, monkeypatch, mutant, specs):
        if mutant is not None:
            monkeypatch.setattr(engine, "_tag_sub_batch", mutant)
        for spec in specs:
            rep = verify_tag_joint(parse_generator_spec(spec).build())
            assert rep.passed == (mutant is None) and (rep.observed > 0) == (mutant is not None), spec

    def test_joint_capped(self):
        verify_tag_joint(chain(montecarlo.JOINT_CHECK_CAP))
        with pytest.raises(TooLargeError):
            verify_tag_joint(chain(10), master_seed=0)

    def test_a_bad_seed_is_refused_before_any_arrival_order_is_built(self, monkeypatch):
        def no_orders(*args):
            raise AssertionError("built arrival orders before checking the seed")

        monkeypatch.setattr(montecarlo.itertools, "permutations", no_orders)
        with pytest.raises(ValueError, match="master seed"):
            verify_tag_joint(chain(montecarlo.JOINT_CHECK_CAP), master_seed=1 << 64)


class TestLastTagUniform:
    @pytest.mark.parametrize("t", LAST_TAG_TIMES)
    def test_a_chunk_fills_its_trials_slots_and_counts(self, t):
        # two pieces, each written at its own trials' slots: the kernel's
        # values on the whole chunk draw, NaN where no arrival precedes t
        p, seed, chunk, rows = random_poset(8, 0.3, seed=42), 5, 2, engine._SUB_BATCH + 5
        first = chunk * CHUNK_TRIALS
        slots = np.full(first + rows + 7, -1.0)
        pieces = []

        def reduce(piece):
            pieces.append(piece)
            return montecarlo._last_tag_slots(t, slots, piece)

        [count] = montecarlo._tag_chunk(p, (reduce,), seed, chunk, rows)
        times, weights = engine.chunk_uniforms(p.n, seed, chunk, rows)
        _, tagged = batch_tag_matrix(p, times, weights)
        want = engine.batch_last_tag_time(tag_keys_of(times, tagged), t)
        assert [piece.first for piece in pieces] == [first, first + engine._SUB_BATCH]
        got = slots[first : first + rows]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(want).any() == (t < 1.0)  # at t = 1 every trial has a value
        assert (slots[:first] == -1.0).all() and (slots[first + rows :] == -1.0).all()
        assert count.dtype == np.int64 and count == np.count_nonzero(~np.isnan(want))

    def test_a_verify_chunk_tally_pickles_to_under_4_kib(self, monkeypatch):
        # every tally a forked worker sends is counts: lemma 3's samples stay
        # in their slots
        sizes = []
        run_chunks = montecarlo._run_chunks

        def measured(task, trials, workers):
            for tally in run_chunks(task, trials, workers):
                sizes.append(len(pickle.dumps(tally)))
                yield tally

        monkeypatch.setattr(montecarlo, "_run_chunks", measured)
        p = parse_generator_spec("random:8:0.3:42").build()
        verify_lemmas(p, "all", 2 * CHUNK_TRIALS, master_seed=3)
        assert len(sizes) == 2 and max(sizes) < 4096

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
        with pytest.raises(ValueError, match="t must lie"):
            verify_last_tag_uniform(chain(2), 0.0, 100)
        with pytest.raises(ValueError, match="t must lie"):
            verify_last_tag_uniform(chain(2), 1.5, 100)

    def test_a_sample_below_the_ks_floor_is_refused(self):
        # at t = 1 every trial has an arrival before t, so trials = samples
        assert pvalues.KS_MIN_SIZE == 141
        with pytest.raises(ValueError, match=r"^140 trials .*t=1\.0.* 141"):
            verify_last_tag_uniform(chain(1), 1.0, 140)
        rep = verify_last_tag_uniform(chain(1), 1.0, 141)
        ref = "uniform[0,1]"
        assert rep == LemmaReport("last_tag_uniform[t=1.0]", 0.07299835229903917, ref,
                                  0.42017718230944123, True, 141)


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
    got = engine.batch_pinned_tags(p, pins, time_keys_of(times), worder)
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
        got = engine.batch_pinned_tags(p, pins, time_keys_of(times), worder)
        assert len(scans) == len(PINNED_TIMES)
        for (x, t), flags in zip(pins, got):
            assert np.array_equal(flags, pinned_reference(p, x, t, times, weights)), (x, t)


class TestExactPinnedLaw:
    """Lemma 4 exactly: x pinned at t is tagged with probability mu_t(x).

    Pinned at 1/2, x sees each other element arrive first (at 1/4) or later
    (at 3/4); H_k counts the rows, over every such set S of size k and every
    weight order, in which x is tagged.  A time t puts each other element
    before x with probability t, so the law asks
    sum_k t^k (1-t)^(n-1-k) H_k / n! == mu_t(x) for every t.
    """

    @pytest.mark.parametrize(
        "spec",
        ["chain:7", "antichain:7", "wedge", "boolean:2", "forest:2,3,2", "random:7:0.3:42",
         "random:6:0.5:1"],
    )
    def test_pinned_tags_give_mu_t(self, spec):
        p = parse_generator_spec(spec).build()
        n, table = p.n, mu_exact(p)
        worder = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
        first = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1  # one row per S
        for x in sorted(p.maximal):
            others = [y for y in range(n) if y != x]
            times = np.full((len(first), n), 0.75)
            times[:, others] = np.where(first, 0.25, 0.75)
            rows = np.repeat(time_keys_of(times), len(worder), axis=0)
            [hits] = engine.batch_pinned_tags(p, [(x, 0.5)], rows, np.tile(worder, (len(first), 1)))
            per_set = hits.reshape(len(first), len(worder)).sum(axis=1)
            h = np.bincount(first.sum(axis=1), weights=per_set, minlength=n).astype(int)
            for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                law = sum(t**k * (1 - t) ** (n - 1 - k) * int(h[k]) for k in range(n))
                assert law / math.factorial(n) == table.mu_t(x, t), (x, t)


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

    def test_a_bare_string_names_one_lemma(self):
        assert verify_lemmas(wedge(), "all", 3_000) == verify_lemmas(wedge(), LEMMAS, 3_000)
        assert verify_lemmas(wedge(), "3", 3_000) == verify_lemmas(wedge(), ["3"], 3_000)
        with pytest.raises(ValueError, match=r"unknown lemmas \['23'\]"):
            verify_lemmas(random_poset(8, 0.3, seed=42), "23", 8_000)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, float("nan")])
    def test_an_alpha_outside_0_1_is_refused_before_any_draw(self, monkeypatch, alpha):
        def no_draws(*args):
            raise AssertionError("drew a chunk before checking alpha")

        monkeypatch.setattr(engine, "_philox", no_draws)
        for call in (
            partial(verify_lemmas, chain(3), ["2"], 5000),
            partial(verify_lemmas, chain(3), ["5"], 0),
            partial(verify_tag_marginals, chain(3), 5000),
            partial(verify_tag_independence, chain(3), 5000),
            partial(verify_last_tag_uniform, chain(3), 0.5, 5000),
        ):
            with pytest.raises(ValueError, match="alpha"):
                call(alpha=alpha)


def _exact(name):
    """An exact check whose one report is its name."""

    def report(total):
        assert total is None
        return [name]

    return None, report


class TestCheckList:
    """_run_checks runs exact and sampled checks from one list."""

    def test_mixed_checks_report_in_declared_order_over_one_pass(self, monkeypatch):
        p, trials, seed = wedge(), CHUNK_TRIALS + 1, 3  # two chunks
        success = (partial(montecarlo._success_counts, p.is_maximal, (0.3679,)),
                   lambda total: [("success", total.tolist())])
        pins = (partial(montecarlo._pinned_hits, p, [(x, 1.0) for x in sorted(p.maximal)]),
                lambda total: [("pins", total.tolist())])
        want = [montecarlo._run_checks(p, [check], trials, seed, 1)[0] for check in (success, pins)]
        tagged = []

        def counted(p, master_seed, chunk, rows, _fn=engine.chunk_tags):
            tagged.append(chunk)
            return _fn(p, master_seed, chunk, rows)

        monkeypatch.setattr(engine, "chunk_tags", counted)
        checks = [_exact("first"), success, _exact("between"), pins, _exact("last")]
        got = montecarlo._run_checks(p, checks, trials, seed, 1)
        assert got == ["first", want[0], "between", want[1], "last"]
        assert tagged == [0, 1]

    def test_an_exact_only_list_draws_nothing_but_validates_its_arguments(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk for an exact-only list")

        monkeypatch.setattr(engine, "_philox", no_draws)
        checks = [_exact("a"), _exact("b")]
        assert montecarlo._run_checks(wedge(), checks, 0, 0, 1) == ["a", "b"]
        for trials, seed, workers, match in [
            (0, 1 << 64, 1, "master seed"),
            (0, 0, 0, "workers"),
            (-1, 0, 1, "trials"),
        ]:
            with pytest.raises(ValueError, match=match):
                montecarlo._run_checks(wedge(), checks, trials, seed, workers)


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

    def test_an_all_post_simulate_sorts_nothing(self, monkeypatch):
        # a chain's tags and acceptance come from one running minimum of its
        # time keys: no key sort, no tag kernel and no tag flags
        def refused(*args):
            raise AssertionError("sorted keys, ran the tag kernel or built tag flags on a chain")

        accepted = []

        def recorded(tag_keys, *args, _fn=engine.batch_accept):
            accepted.append(tag_keys)
            return _fn(tag_keys, *args)

        monkeypatch.setattr(engine, "_key_order", refused)
        monkeypatch.setattr(engine, "_tag_sub_batch", refused)
        monkeypatch.setattr(engine.Piece, "tagged", property(refused))
        monkeypatch.setattr(engine, "batch_accept", recorded)
        rows = 2 * engine._SUB_BATCH + 5
        estimate_success(chain(20), trials=rows, master_seed=3)
        assert len(accepted) == 3
        # the tag keys' value bits are the draw bit for bit: each key is the
        # time of the element its low bits name, and the top row holds the
        # top element's own key
        times, _ = engine.chunk_uniforms(20, 3, 0, rows)
        tag_keys = np.concatenate(accepted, axis=1)
        drawn = (tag_keys >> 6) * 2.0**-53
        at = (tag_keys & 63).astype(np.intp)
        assert np.array_equal(drawn.view(np.uint64), times.T[at, np.arange(rows)].view(np.uint64))
        assert np.array_equal(drawn[-1].view(np.uint64), times[:, 19].view(np.uint64))

    def test_a_chain_lemma_3_pass_builds_no_tag_matrix(self, monkeypatch):
        # the last tag before t is read off the running minimum's tag keys
        def refused(*args):
            raise AssertionError("sorted keys, ran the tag kernel or built tag flags on a chain")

        monkeypatch.setattr(engine, "_key_order", refused)
        monkeypatch.setattr(engine, "_tag_sub_batch", refused)
        monkeypatch.setattr(engine.Piece, "tagged", property(refused))
        reports = verify_lemmas(chain(20), ["3"], 2 * engine._SUB_BATCH + 5, master_seed=3)
        assert len(reports) == len(LAST_TAG_TIMES)


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
            # lemma 3's reducers, each bound to its t's slots, mapped here
            *(montecarlo._last_tag_check(p, t, CHUNK_TRIALS, 0.001)[0] for t in LAST_TAG_TIMES),
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


class TestLastTagFootprint:
    def test_lemma_3_maps_its_slots_and_traces_below_a_chunk(self, monkeypatch):
        # each t's samples go to one float64 slot per trial, in an anonymous
        # mapping that its report divides, sorts and tests in place, and that
        # tracemalloc cannot see; what it sees is one chunk pass's working
        # set, below the chunk's float64 times
        p, trials = random_poset(8, 0.3, seed=42), 8 * CHUNK_TRIALS
        itemsize = np.dtype(np.float64).itemsize
        mapped = []
        real_mmap = mmap.mmap

        def recorded(fileno, length, *args, **kwargs):
            mapped.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", recorded)
        tracemalloc.start()
        try:
            reports = verify_lemmas(p, ["3"], trials, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == len(LAST_TAG_TIMES)
        assert mapped == [itemsize * trials] * len(LAST_TAG_TIMES)
        assert peak < CHUNK_TRIALS * p.n * itemsize


class TestDeterminismAcrossChunks:
    def test_partial_chunks_do_not_depend_on_layout(self):
        # trials just over one chunk boundary: totals must equal the sum of
        # what the canonical chunks contribute, whatever the worker count
        from poset_secretary.engine import CHUNK_TRIALS

        trials = CHUNK_TRIALS + 123
        a = estimate_success(antichain(3), 0.3, trials, master_seed=11, workers=1)
        b = estimate_success(antichain(3), 0.3, trials, master_seed=11, workers=2)
        assert a == b


def _chunk_and_pid(c, rows):
    return c, rows, os.getpid()


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_on(trials, workers):
    """The chunk layout _run_chunks yields, and the pids of the processes that computed it."""
    got = list(_run_chunks(_chunk_and_pid, trials, workers))
    assert [(c, rows) for c, rows, _ in got] == list(engine.chunk_layout(trials))
    assert_no_child_is_left()
    return {pid for _, _, pid in got}


class TestPoolSize:
    def test_the_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        trials = 2 * CHUNK_TRIALS + 4464  # three chunks
        for workers, children in [(64, 3), (2, 2)]:
            pids = run_on(trials, workers)
            assert len(pids) == children and os.getpid() not in pids

    @pytest.mark.parametrize("cpus,sizes", [({5, 7}, [2]), ({3}, [])])
    def test_the_pool_has_no_more_workers_than_usable_cpus(self, monkeypatch, cpus, sizes):
        # pinning to a CPU this host lacks fails in the child, which runs on
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: cpus)
        pids = run_on(40 * CHUNK_TRIALS, workers=100_000)  # one CPU runs them in-process
        assert ([] if pids == {os.getpid()} else [len(pids)]) == sizes

    def test_without_an_affinity_set_the_cpu_count_caps_the_pool(self, monkeypatch):
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        pids = run_on(5 * CHUNK_TRIALS, workers=8)
        assert len(pids) == 3 and os.getpid() not in pids
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)  # one CPU
        assert run_on(5 * CHUNK_TRIALS, workers=8) == {os.getpid()}

    def test_without_fork_the_chunks_run_in_process(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(montecarlo.os, "fork")
        assert run_on(3 * CHUNK_TRIALS, workers=2) == {os.getpid()}

    @staticmethod
    def logged(tmp_path):
        """A task that marks each chunk it starts in tmp_path and returns a
        result larger than a pipe's buffer, so a child's write waits for the reader."""

        def task(c, rows):
            (tmp_path / str(c)).touch()
            return c, rows, bytes(1 << 20)

        return task

    @staticmethod
    def started(tmp_path):
        return sorted(int(f.name) for f in tmp_path.iterdir())

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_child_runs_at_most_one_chunk_ahead_of_the_reader(
        self, tmp_path, monkeypatch, workers
    ):
        # a child cannot start its next chunk before its last one is read, so
        # once k results are read no chunk past k + workers - 1 has started
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        trials = 12 * CHUNK_TRIALS + 17
        chunks = _run_chunks(self.logged(tmp_path), trials, workers)
        for k, chunk in enumerate(engine.chunk_layout(trials), start=1):
            c, rows, _ = next(chunks)
            assert (c, rows) == chunk
            assert self.started(tmp_path)[-1] < k + workers
        assert self.started(tmp_path) == list(range(13))
        assert next(chunks, None) is None
        assert_no_child_is_left()

    def test_the_layout_is_walked_as_results_are_read(self, tmp_path, monkeypatch):
        # 305,176 chunks: reading the first three starts at most one more per child
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        chunks = _run_chunks(self.logged(tmp_path), 10**10, workers=2)
        got = [(c, rows) for c, rows, _ in itertools.islice(chunks, 3)]
        assert got == [(c, CHUNK_TRIALS) for c in range(3)]
        chunks.close()
        assert_no_child_is_left()
        assert self.started(tmp_path)[:3] == [0, 1, 2]
        assert self.started(tmp_path)[-1] < 3 + 2

    def test_closing_after_a_partial_read_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        chunks = _run_chunks(_chunk_and_pid, 10**10, workers=2)
        assert [c for c, _, _ in itertools.islice(chunks, 5)] == [0, 1, 2, 3, 4]
        chunks.close()
        assert_no_child_is_left()

    def test_a_task_error_in_a_child_is_raised_here(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})

        def task(c, rows):
            if c == 3:
                raise ValueError(f"bad chunk {c} in {os.getpid()}")
            return c

        with pytest.raises(ValueError, match="bad chunk 3 in") as info:
            list(_run_chunks(task, 6 * CHUNK_TRIALS, workers=2))
        assert str(os.getpid()) not in str(info.value)
        assert_no_child_is_left()

    def test_a_child_that_dies_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})

        def task(c, rows):
            if c == 2:
                os._exit(3)
            return c

        chunks = _run_chunks(task, 6 * CHUNK_TRIALS, workers=2)
        assert list(itertools.islice(chunks, 2)) == [0, 1]
        with pytest.raises(RuntimeError, match=r"worker \d+ exited before sending chunk 2"):
            next(chunks)
        assert_no_child_is_left()


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
