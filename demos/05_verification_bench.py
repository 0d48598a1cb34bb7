"""Put the tag process through its statistical paces on one random poset.

One `verify_lemmas` call runs the checks of `poset-secretary verify`, all
over one pass of the trials:
  - lemma 2: the k-th arrival is tagged with probability exactly 1/k, and
    distinct positions' tag indicators are independent,
  - lemma 3: the last tag before time t lands uniformly on [0, t],
  - lemma 4: an element arriving exactly at time t is tagged with
    probability mu_t,
  - lemma 5: the exact mu_t >= mu monotonicity sweep.
"""

from poset_secretary import random_poset, verify_lemmas

TRIALS = 100_000
p = random_poset(7, 0.3, seed=42)
print(f"poset: random(7, 0.3), {TRIALS} trials, every lemma\n")

reports = verify_lemmas(p, ["2", "3", "4", "5"], TRIALS, master_seed=0)
pairs = [rep for rep in reports if rep.statistic.startswith("tag_independence")]
for rep in reports:
    if rep in pairs:
        continue  # one line for all the pairs, below
    flag = "ok " if rep.passed else "FAIL"
    pv = "   --" if rep.p_value is None else f"{rep.p_value:.3f}"
    print(f"  [{flag}] {rep.statistic:<34} observed={rep.observed:.4f} p={pv}")
print(f"\npairwise independence (chi-square): {sum(r.passed for r in pairs)}/{len(pairs)} pairs pass")
