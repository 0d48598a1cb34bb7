"""Monte Carlo drivers: estimates, sweeps, and the distributional checks.

Statistical assertions here run at moderate trial counts with pinned seeds;
the million-trial battery lives in the acceptance tests.
"""

import math
import os

import numpy as np
import pytest

from poset_secretary import engine
from poset_secretary.engine import CHUNK_TRIALS, SIM_CAP, batch_tag_matrix
from poset_secretary.errors import NotMaximalError, TooLargeError, ZeroTrialsError
from poset_secretary.families import antichain, boolean_lattice, chain, random_poset, wedge
from poset_secretary.greedy import mu_exact
from poset_secretary.montecarlo import (
    LAST_TAG_TIMES,
    LEMMAS,
    PINNED_TIMES,
    Estimate,
    _pinned_tags,
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

        monkeypatch.setattr(engine, "chunk_uniforms", no_draws)
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

    def test_widens_with_confidence(self):
        l1, h1 = wilson_interval(500, 1000, confidence=0.9)
        l2, h2 = wilson_interval(500, 1000, confidence=0.99)
        assert (h2 - l2) > (h1 - l1)

    def test_validates_inputs(self):
        with pytest.raises(ZeroTrialsError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 4, confidence=1.0)


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

        monkeypatch.setattr(engine, "chunk_uniforms", no_draws)
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
        # explicit opt-out for smoke runs
        reports = verify_tag_marginals(chain(5), 200, master_seed=0, min_per_position=0)
        assert len(reports) == 5


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

    def test_joint_pattern_law(self):
        for p in (chain(1), antichain(4), random_poset(5, 0.5, seed=7)):
            rep = verify_tag_joint(p, TRIALS, master_seed=6)
            assert rep.passed, rep

    def test_joint_capped(self):
        with pytest.raises(TooLargeError):
            verify_tag_joint(chain(13), 13_000, master_seed=0)


class TestLastTagUniform:
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


def pinned_reference(p, x, t, times, weights):
    """x's tag flag per row with its arrival time replaced by t, read from the
    full tag matrix at x's arrival."""
    times = times.copy()
    times[:, x] = t
    aorder, _, tagged = batch_tag_matrix(p, times, weights)
    k = np.argmax(aorder == x, axis=1)
    return tagged[np.arange(len(k)), k]


class TestPinnedScan:
    @pytest.mark.parametrize(
        "p",
        [
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
        ],
    )
    @pytest.mark.parametrize("quantum", [4, 8])
    def test_masked_scan_matches_full_tag_matrix(self, p, quantum):
        # times and weights on a grid of 1/quantum, so both kinds of tie occur
        rng = np.random.default_rng(p.n * quantum)
        times = np.floor(rng.random((200, p.n)) * quantum) / quantum
        weights = np.floor(rng.random((200, p.n)) * quantum) / quantum
        worder = np.argsort(weights, axis=1, kind="stable")
        for x in sorted(p.maximal):
            for t in (0.0, 0.25, 0.5, 1.0):
                got = _pinned_tags(p.lt, x, t, times, worder)
                want = pinned_reference(p, x, t, times, weights)
                assert np.array_equal(got, want), (x, t)


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
        calls = {"chunk_uniforms": 0, "batch_tag_matrix": 0}
        for name in calls:
            def counted(*args, _fn=getattr(engine, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(engine, name, counted)
        verify_lemmas(wedge(), LEMMAS, CHUNK_TRIALS + 1, master_seed=0)
        assert calls == {"chunk_uniforms": 2, "batch_tag_matrix": 2}

    def test_exact_lemma_alone_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk for an exact-only check")

        monkeypatch.setattr(engine, "chunk_uniforms", no_draws)
        [rep] = verify_lemmas(wedge(), ["5"], trials=0)
        assert rep.statistic == "mu_monotonicity" and rep.passed

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            verify_lemmas(wedge(), ["2", "6"], trials=6_000)


class TestDeterminismAcrossChunks:
    def test_partial_chunks_do_not_depend_on_layout(self):
        # trials just over one chunk boundary: totals must equal the sum of
        # what the canonical chunks contribute, whatever the worker count
        from poset_secretary.engine import CHUNK_TRIALS

        trials = CHUNK_TRIALS + 123
        a = estimate_success(antichain(3), 0.3, trials, master_seed=11, workers=1)
        b = estimate_success(antichain(3), 0.3, trials, master_seed=11, workers=2)
        assert a == b


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
