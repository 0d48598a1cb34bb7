"""Exact greedy-maximum distributions in rational arithmetic.

mu(x) is the probability that x ends the greedy chain under uniformly random
weights; mu_t(x) conditions on x's own weight being at most t.  Both come out
as exact fractions for small posets.
"""

from fractions import Fraction

from poset_secretary import (
    check_mu_monotonicity,
    chain,
    from_relations,
    mu_exact,
    mu_t_exact,
    wedge,
)

for label, p in [("chain(4)", chain(4)), ("wedge", wedge()),
                 ("a<b with isolated c", from_relations(3, [(0, 1)]))]:
    mu = mu_exact(p)
    print(f"{label}: mu = {[str(mu[x]) for x in range(p.n)]}")

# On {a < b, c} the element b is the greedy maximum unless c is globally
# lightest: mu(b) = 2/3, mu(c) = 1/3.

print()
p = from_relations(3, [(0, 1)])
print("mu_t(b) on {a<b, c}, which works out to the polynomial 1 - t/2 + t^2/6:")
for t in [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]:
    v = mu_t_exact(p, 1, t)
    print(f"  t={str(t):>4}  mu_t = {str(v):>7}  (= {float(v):.6f})")

# Lighter is never worse: mu_t(x) >= mu(x) for every maximal x, checked here
# exactly over a 17-point grid.
rep = check_mu_monotonicity(mu_exact(wedge()), [Fraction(k, 16) for k in range(17)])
print(f"\nmonotonicity on the wedge: {rep.checks} checks, "
      f"{len(rep.violations)} violations")
