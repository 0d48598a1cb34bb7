"""Acceptance battery: ten numbered criteria, one printed line each.

Each test prints ``ACCEPTANCE <k>: PASS/FAIL -- <detail>`` (bypassing
capture) and then asserts.  Seeds are pinned; the engine is deterministic for
any worker count, so every number below is reproducible bit for bit.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from poset_secretary.cli import main
from poset_secretary.engine import batch_tag_matrix, chunk_uniforms
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
    greedy_maximum,
    mu_exact,
    mu_t_exact,
)
from poset_secretary.montecarlo import (
    empirical_greedy_max,
    estimate_success,
    verify_last_tag_uniform,
    verify_tag_independence,
    verify_tag_marginals,
    verify_tagged_given_arrival,
)
from poset_secretary.posets import SubsetMap, from_relations, induced_subposet
from poset_secretary.simulate import TAU_DEFAULT

MILLION = 10**6

SUITE = [
    ("chain(1)", chain(1)),
    ("chain(5)", chain(5)),
    ("chain(20)", chain(20)),
    ("antichain(5)", antichain(5)),
    ("antichain(20)", antichain(20)),
    ("wedge", wedge()),
    ("boolean_lattice(3)", boolean_lattice(3)),
    ("forest_of_chains([2,3,4])", forest_of_chains([2, 3, 4])),
    ("random(8,0.3,seed=0)", random_poset(8, 0.3, seed=0)),
    ("random(8,0.3,seed=1)", random_poset(8, 0.3, seed=1)),
    ("random(8,0.3,seed=2)", random_poset(8, 0.3, seed=2)),
    ("random(8,0.3,seed=3)", random_poset(8, 0.3, seed=3)),
    ("random(8,0.3,seed=4)", random_poset(8, 0.3, seed=4)),
]


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_01_success_floor_across_suite(capsys):
    floor = 1 / math.e - 0.005
    worst = None
    for i, (label, p) in enumerate(SUITE):
        est = estimate_success(p, TAU_DEFAULT, MILLION, master_seed=1000 + i)
        if worst is None or est.ci_low < worst[1]:
            worst = (label, est.ci_low)
    ok = worst[1] >= floor
    announce(capsys, 1, ok,
             f"min ci_low {worst[1]:.4f} on {worst[0]} vs floor {floor:.4f} "
             f"({len(SUITE)} posets x 1e6 trials at tau=1/e)")
    assert ok, f"ci_low {worst[1]} < {floor} on {worst[0]}"


def test_criterion_02_singleton_calibration(capsys):
    target = 1 - 1 / math.e
    est = estimate_success(chain(1), TAU_DEFAULT, MILLION, master_seed=2000)
    err = abs(est.p_hat - target)
    ok = err <= 0.003
    announce(capsys, 2, ok,
             f"chain(1) p_hat {est.p_hat:.4f} vs 1-1/e {target:.4f} (|err| {err:.4f} <= 0.003)")
    assert ok


def test_criterion_03_tag_marginals_and_structure_independence(capsys):
    bounds = [4 * math.sqrt((1 / k) * (1 - 1 / k) / MILLION) for k in range(1, 9)]
    obs = [r.observed for r in
           verify_tag_marginals(random_poset(8, 0.3, seed=0), MILLION, master_seed=3000)]
    # k=1 has zero variance: the first arrival is tagged always, exactly
    ok_first = obs[0] == 1.0
    worst_ratio = max((abs(o - 1 / k) / b for k, o, b in
                       zip(range(2, 9), obs[1:], bounds[1:])), default=0.0)
    ok_marg = ok_first and worst_ratio <= 1

    chain_obs = [r.observed for r in verify_tag_marginals(chain(5), MILLION, master_seed=3001)]
    anti_obs = [r.observed for r in verify_tag_marginals(antichain(5), MILLION, master_seed=3002)]
    gaps = [abs(a - b) for a, b in zip(chain_obs, anti_obs)]
    ok_pair = all(g <= b for g, b in zip(gaps, bounds))

    ok = ok_marg and ok_pair
    announce(capsys, 3, ok,
             f"random(8,0.3) marginals: k=1 exact, worst |dev|/4se {worst_ratio:.2f}; "
             f"chain(5) vs antichain(5) max gap {max(gaps):.5f} within bounds")
    assert ok_marg, "a marginal frequency strayed beyond 4 standard errors"
    assert ok_pair, f"chain/antichain marginal vectors disagree: {gaps}"


def test_criterion_04_pairwise_independence(capsys):
    alpha = 0.001
    reports = verify_tag_independence(random_poset(6, 0.4, seed=0), MILLION,
                                      master_seed=4000, alpha=alpha)
    flagged = sum(1 for r in reports if not r.passed)
    fraction = flagged / len(reports)
    ok = fraction <= 5 * alpha
    announce(capsys, 4, ok,
             f"{flagged}/{len(reports)} pairs flagged at alpha={alpha} "
             f"(fraction {fraction:.4f} <= {5 * alpha})")
    assert ok


def test_criterion_05_last_tag_uniformity(capsys):
    combos = [(label, p, t)
              for label, p in [("chain(3)", chain(3)), ("wedge", wedge()),
                               ("boolean_lattice(3)", boolean_lattice(3))]
              for t in (0.5, 1.0)]
    worst = None
    for i, (label, p, t) in enumerate(combos):
        rep = verify_last_tag_uniform(p, t, MILLION, master_seed=5000 + i)
        if worst is None or rep.p_value < worst[1]:
            worst = (f"{label}@t={t}", rep.p_value)
    ok = worst[1] > 0.001
    announce(capsys, 5, ok,
             f"min KS p-value {worst[1]:.4f} at {worst[0]} (6 combos x 1e6 trials)")
    assert ok


def test_criterion_06_pinned_arrival_matches_polynomial(capsys):
    p = from_relations(3, [(0, 1)])  # a < b with an isolated c; x = b
    worst = None
    for i, t in enumerate((0.25, 0.5, 1.0)):
        tf = Fraction(t)
        assert mu_t_exact(p, 1, tf) == 1 - tf / 2 + tf * tf / 6
        rep = verify_tagged_given_arrival(p, 1, t, 10**5, master_seed=6000 + i)
        se = math.sqrt(rep.reference * (1 - rep.reference) / 10**5)
        dev = abs(rep.observed - rep.reference) / se
        if worst is None or dev > worst[1]:
            worst = (t, dev)
        assert rep.passed
    ok = worst[1] <= 4
    announce(capsys, 6, ok,
             f"max deviation {worst[1]:.2f} se at t={worst[0]} vs 1 - t/2 + t^2/6 "
             f"(3 points x 1e5 trials)")
    assert ok


def test_criterion_07_mu_monotonicity_exact(capsys):
    grid = [Fraction(k, 16) for k in range(17)]
    total_checks = 0
    total_violations = 0
    for label, p in SUITE:
        rep = check_mu_monotonicity(mu_exact(p), grid)
        total_checks += rep.checks
        total_violations += len(rep.violations)
    ok = total_violations == 0 and total_checks > 0
    announce(capsys, 7, ok,
             f"{total_violations} violations in {total_checks} exact checks "
             f"(all {len(SUITE)} posets, n <= {max(p.n for _, p in SUITE)}, t-grid k/16)")
    assert ok


def test_criterion_08_mu_oracle_consistency(capsys):
    worst = None
    for j, (label, p) in enumerate(SUITE):
        mu = mu_exact(p)
        assert sum(mu[x] for x in p.maximal) == 1
        assert sum(mu.values) == 1
        counts = empirical_greedy_max(p, MILLION, master_seed=8000 + j)
        for x in range(p.n):
            ref = mu[x]
            freq = counts[x] / MILLION
            if ref in (0, 1):
                assert freq == float(ref), f"{label} x={x}: impossible frequency {freq}"
                continue
            se = math.sqrt(float(ref) * (1 - float(ref)) / MILLION)
            dev = abs(freq - float(ref)) / se
            if worst is None or dev > worst[1]:
                worst = (f"{label} x={x}", dev)
    ok = worst[1] <= 4
    announce(capsys, 8, ok,
             f"sum(mu)=1 exact on all {len(SUITE)} posets; max greedy-max deviation "
             f"{worst[1]:.2f} se at {worst[0]} (1e6 samples each)")
    assert ok


def test_criterion_09_online_offline_tag_equivalence(capsys):
    p = random_poset(7, 0.3, seed=0)
    trials = 10**4
    times, weights = chunk_uniforms(p.n, 9000, 0, trials)
    _, tagged = batch_tag_matrix(p, times, weights)
    arrivals = np.argsort(times, axis=1, kind="stable")
    mismatches = 0
    for b in range(trials):
        order = arrivals[b]
        for k in range(p.n):
            exposed = tuple(sorted(int(e) for e in order[: k + 1]))
            sub = induced_subposet(p, SubsetMap(exposed))
            w = WeightRanking.from_weights(weights[b][list(exposed)])
            offline = greedy_maximum(sub, w) == exposed.index(int(order[k]))
            mismatches += offline != bool(tagged[b, order[k]])
    ok = mismatches == 0
    announce(capsys, 9, ok,
             f"{mismatches} mismatches over {trials} trials x {p.n} positions "
             f"on random(7,0.3)")
    assert ok


def test_criterion_10_byte_identical_reports(capsys):
    commands = [
        ("simulate", "random:8:0.3:42", "--trials", "20000", "--seed", "9"),
        ("simulate", "random:8:0.3:42", "--trials", "20000", "--seed", "9", "--format", "csv"),
        ("sweep", "chain:5", "--taus", "0.1,0.3679,0.7", "--trials", "20000",
         "--seed", "3", "--format", "csv"),
        ("verify", "wedge", "--trials", "20000", "--seed", "4"),
        ("exact-mu", "boolean:3", "--t", "1/3"),
    ]

    def run(argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, f"{argv} exited {code}"
        return out

    identical = True
    for argv in commands:
        if run(argv) != run(argv):
            identical = False
    a = run(commands[0] + ("--workers", "1"))
    b = run(commands[0] + ("--workers", "2"))
    worker_proof = (a == b) and (a == run(commands[0]))
    json.loads(a)  # well-formed JSON document

    ok = identical and worker_proof
    announce(capsys, 10, ok,
             f"{len(commands)} commands rerun byte-identical; workers 1 vs 2 identical")
    assert identical, "a rerun produced different bytes"
    assert worker_proof, "worker count leaked into the report"
