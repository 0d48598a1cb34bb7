"""Put the tag process through its statistical paces on one random poset.

Four families of checks, mirroring `poset-secretary verify`:
  - the k-th arrival is tagged with probability exactly 1/k,
  - distinct positions' tag indicators are independent,
  - the last tag before time t lands uniformly on [0, t],
  - an element arriving exactly at time t is tagged with probability mu_t,
plus the exact mu_t >= mu monotonicity sweep.
"""

from fractions import Fraction

from poset_secretary import (
    check_mu_monotonicity,
    mu_exact,
    random_poset,
    verify_last_tag_uniform,
    verify_tag_independence,
    verify_tag_marginals,
    verify_tagged_given_arrival,
)

TRIALS = 100_000
p = random_poset(7, 0.3, seed=42)
print(f"poset: random(7, 0.3), {TRIALS} trials per check\n")


def show(rep):
    flag = "ok " if rep.passed else "FAIL"
    pv = "   --" if rep.p_value is None else f"{rep.p_value:.3f}"
    print(f"  [{flag}] {rep.statistic:<34} observed={rep.observed:.4f} p={pv}")


print("tag marginals (reference 1/k):")
for rep in verify_tag_marginals(p, TRIALS, master_seed=0):
    show(rep)

print("\npairwise independence (chi-square):")
reports = verify_tag_independence(p, TRIALS, master_seed=0)
print(f"  {sum(r.passed for r in reports)}/{len(reports)} pairs pass")

print("\nlast-tag uniformity (KS):")
for t in (0.5, 1.0):
    show(verify_last_tag_uniform(p, t, TRIALS, master_seed=1))

print("\npinned-arrival tag probability vs exact mu_t:")
for x in sorted(p.maximal):
    show(verify_tagged_given_arrival(p, x, 0.5, TRIALS, master_seed=2))

rep = check_mu_monotonicity(mu_exact(p), [Fraction(k, 16) for k in range(17)])
print(f"\nexact monotonicity: {rep.checks} checks, {len(rep.violations)} violations")
