"""Walk the greedy chain by hand and watch arrivals get tagged.

The greedy chain starts at the globally lightest element and keeps stepping
to the lightest element strictly above the current one.  Its endpoint -- the
greedy maximum -- is always maximal.  An arrival is *tagged* when it is the
greedy maximum of the sub-order exposed so far, which the selector can
compute without ever looking at the unseen part of the poset.
"""

import numpy as np

from poset_secretary import (
    WeightRanking,
    boolean_lattice,
    greedy_chain,
    run_strategy,
    sample_trial,
    tag_sequence,
    wedge,
)

rng = np.random.default_rng(2024)

# --- the greedy chain on a wedge (0 below both 1 and 2) ---------------------

p = wedge()
for weights in ([0.1, 0.6, 0.3], [0.5, 0.2, 0.9], [0.4, 0.9, 0.1]):
    w = WeightRanking.from_weights(weights)
    c = greedy_chain(p, w)
    print(f"weights {weights} -> chain {c}, greedy max {c[-1]}")

# The chain always climbs: weights increase strictly along it, which is why a
# single lightest-first scan finds the same endpoint.

# --- tagging during one arrival sequence ------------------------------------

p = boolean_lattice(3)  # subsets of {0,1,2} ordered by inclusion
trial = sample_trial(p.n, rng)
print("\narrivals on the boolean lattice (element = bitmask of a subset):")
for ev in tag_sequence(p, trial):
    mark = "tagged" if ev.tagged else "      "
    print(f"  t={ev.time:.3f}  element {ev.element:>2}  {mark}")

# --- the threshold strategy end to end ---------------------------------------

out = run_strategy(p, trial)
print(f"\nthreshold strategy at tau=1/e: accepted={out.accepted}, success={out.success}")
# success means the accepted element is maximal in the *full* order -- for the
# boolean lattice only the full set (element 7) qualifies.
