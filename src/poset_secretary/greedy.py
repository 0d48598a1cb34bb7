"""Greedy-maximum chains, tagging, and exact greedy-maximum distributions.

Given distinct weights on a poset's elements, the greedy chain starts at the
globally lightest element and repeatedly steps to the lightest element
strictly above the current one; its terminal element is the greedy maximum.
Only the weight *ranking* matters, so with i.i.d. continuous weights the
probability mu(x) that x ends the chain is a rational with denominator n!,
computed here exactly by enumerating all rankings.

mu_t(x) is mu(x) conditioned on x's weight being at most t.  For maximal x
it equals the greedy-maximum probability of x after independently discarding
every other element with probability 1-t, which yields the subset expansion

    mu_t(x) = sum over S containing x of t^(|S|-1) (1-t)^(n-|S|) mu_{P[S]}(x)

evaluated in exact rational arithmetic with the per-subset tables memoized
on the poset (keyed by member bitmask).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import NotMaximalError, TooLargeError
from .posets import Poset, SubsetMap, induced_subposet

__all__ = [
    "WeightRanking",
    "GreedyChain",
    "MuTable",
    "greedy_chain",
    "greedy_maximum",
    "greedy_scan",
    "is_tagged",
    "mu_exact",
    "mu_t_exact",
    "check_mu_monotonicity",
    "MonotonicityReport",
    "MU_EXACT_CAP",
    "MU_T_CAP",
]

# Exact-enumeration caps: 10! rankings for mu, and a 2^n subset sum on top of
# the ranking enumeration for mu_t.
MU_EXACT_CAP = 10
MU_T_CAP = 8

_PERM_BATCH = 40320  # permutations materialized per numpy block


@dataclass(frozen=True)
class WeightRanking:
    """Weight order of a poset's elements: rank[i] = 0 means i is lightest."""

    rank: tuple[int, ...]

    def __post_init__(self) -> None:
        rank = tuple(int(r) for r in self.rank)
        if sorted(rank) != list(range(len(rank))):
            raise ValueError("rank must be a permutation of 0..n-1")
        object.__setattr__(self, "rank", rank)

    @property
    def n(self) -> int:
        return len(self.rank)

    @classmethod
    def from_weights(cls, weights) -> "WeightRanking":
        """Rank real weights, breaking exact ties by element index."""
        w = np.asarray(weights, dtype=float)
        order = np.lexsort((np.arange(len(w)), w))
        rank = np.empty(len(w), dtype=int)
        rank[order] = np.arange(len(w))
        return cls(tuple(int(r) for r in rank))

    def lightest_first(self) -> tuple[int, ...]:
        """Elements sorted by increasing weight."""
        order = sorted(range(self.n), key=lambda i: self.rank[i])
        return tuple(order)


@dataclass(frozen=True)
class GreedyChain:
    """The chain z_0 < z_1 < ... < z_m walked by the greedy recursion."""

    elements: tuple[int, ...]

    @property
    def terminal(self) -> int:
        return self.elements[-1]


@dataclass(frozen=True)
class MuTable:
    """Exact per-element probability of being the greedy maximum."""

    values: tuple[Fraction, ...]

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)


def greedy_chain(p: Poset, w: WeightRanking) -> GreedyChain:
    """Walk the greedy recursion for the given weight ranking.

    Deliberately written as the literal recursion (argmin over the current
    up-set) so it can serve as the auditable reference; the vectorized paths
    elsewhere are tested against it.
    """
    if w.n != p.n:
        raise ValueError(f"ranking covers {w.n} elements, poset has {p.n}")
    rank = w.rank
    z = min(range(p.n), key=lambda i: rank[i])
    out = [z]
    while True:
        above = np.flatnonzero(p.lt[z])
        if above.size == 0:
            return GreedyChain(tuple(out))
        z = int(min(above, key=lambda y: rank[y]))
        out.append(z)


def greedy_maximum(p: Poset, w: WeightRanking) -> int:
    """Terminal element of the greedy chain; always maximal in p."""
    return greedy_chain(p, w).terminal


def is_tagged(p_x: Poset, x_local: int, w: WeightRanking) -> bool:
    """Is x the greedy maximum of the poset exposed up to its own arrival?

    ``p_x`` is the induced poset on everything exposed by the time x arrives
    (including x); ``x_local`` names x inside it.
    """
    return greedy_maximum(p_x, w) == x_local


def greedy_scan(lt: np.ndarray, order: np.ndarray, member: np.ndarray | None = None) -> np.ndarray:
    """Greedy maximum per row of a (rows, n) weight order, lightest first.

    One lockstep scan over the order: the running element jumps to the next
    element that lies strictly above it.  That walks the greedy chain,
    because chain weights strictly increase.  With a (rows, n) boolean
    ``member`` mask, row b scans only the elements e with member[b, e], which
    gives the greedy maximum of that induced subposet; a row with no member
    returns n.
    """
    n = lt.shape[0]
    # row n is a virtual bottom below every element, so the first member
    # scanned always takes over; flat indices are much faster than 2-D ones
    above = np.vstack([lt, np.ones((1, n), dtype=bool)]).ravel()
    cols = np.ascontiguousarray(order.T)
    if member is not None:
        member = np.ascontiguousarray(np.take_along_axis(member, order, axis=1).T)
    z = np.full(cols.shape[1], n, dtype=np.intp)
    for w in range(n):
        go = above[z * n + cols[w]]
        if member is not None:
            go &= member[w]
        z = np.where(go, cols[w], z)
    return z


def _greedy_max_counts(lt: np.ndarray) -> np.ndarray:
    """Count, per element, the rankings whose greedy chain ends there.

    Enumerates all n! rankings; each permutation is read as the weight order
    (first entry lightest) and goes through greedy_scan.
    """
    n = lt.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    perms = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(perms, _PERM_BATCH))
        if not block:
            return counts
        z = greedy_scan(lt, np.asarray(block, dtype=np.int8))
        counts += np.bincount(z, minlength=n)


def mu_exact(p: Poset, cap: int = MU_EXACT_CAP) -> MuTable:
    """Exact greedy-maximum distribution over all n! weight rankings."""
    if p.n > cap:
        raise TooLargeError(f"mu_exact enumerates n! rankings; n={p.n} exceeds cap {cap}")
    counts = _greedy_max_counts(p.lt)
    total = factorial(p.n)
    values = tuple(Fraction(int(c), total) for c in counts)
    # The chain always ends at a maximal element and some chain always exists.
    assert all(values[x] == 0 for x in range(p.n) if x not in p.maximal)
    assert sum(values[x] for x in p.maximal) == 1
    return MuTable(values)


def _subposet_mu(p: Poset, mask: int) -> tuple[Fraction, ...]:
    """mu table of the induced subposet for a member bitmask, memoized on p."""
    cache = p._mu_cache
    hit = cache.get(mask)
    if hit is not None:
        return hit
    members = tuple(i for i in range(p.n) if (mask >> i) & 1)
    sub = induced_subposet(p, SubsetMap(members))
    table = mu_exact(sub, cap=max(MU_EXACT_CAP, sub.n)).values
    cache[mask] = table
    return table


def _as_unit_fraction(t) -> Fraction:
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return t


def mu_t_exact(p: Poset, x: int, t, cap: int = MU_T_CAP) -> Fraction:
    """mu(x) conditioned on x's weight being at most t, exactly.

    Defined only for maximal x (the discard construction needs it); requires
    p.n <= cap because the expansion sums over all subsets containing x.
    At t=1 the value equals mu_exact(p)[x]; at t=0 it is 1.
    """
    t = _as_unit_fraction(t)
    if p.n > cap:
        raise TooLargeError(f"mu_t_exact sums over 2^(n-1) subsets; n={p.n} exceeds cap {cap}")
    if not 0 <= x < p.n:
        raise IndexError(f"element {x} out of range for n={p.n}")
    if x not in p.maximal:
        raise NotMaximalError(f"element {x} is not maximal")
    n = p.n
    others = [i for i in range(n) if i != x]
    total = Fraction(0)
    for r in range(len(others) + 1):
        for kept in itertools.combinations(others, r):
            mask = 1 << x
            for i in kept:
                mask |= 1 << i
            members_below_x = sum(1 for i in kept if i < x)
            mu_x = _subposet_mu(p, mask)[members_below_x]
            size = r + 1
            total += t ** (size - 1) * (1 - t) ** (n - size) * mu_x
    return total


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the exact mu_t >= mu sweep over a t-grid."""

    poset_size: int
    grid: tuple[Fraction, ...]
    checks: int
    violations: tuple[tuple[int, Fraction, Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_mu_monotonicity(p: Poset, grid, cap: int = MU_T_CAP) -> MonotonicityReport:
    """Assert mu_t(x) >= mu(x) for every maximal x and grid point, exactly.

    Lowering an element's weight can only help it terminate the chain, so a
    violation would mean a bug; the report lists any (there must be none).
    """
    grid = tuple(_as_unit_fraction(t) for t in grid)
    if p.n > cap:
        raise TooLargeError(f"monotonicity check needs n <= {cap}, got {p.n}")
    mu = mu_exact(p)
    violations = []
    checks = 0
    for x in sorted(p.maximal):
        for t in grid:
            val = mu_t_exact(p, x, t, cap=cap)
            checks += 1
            if val < mu[x]:
                violations.append((x, t, val, mu[x]))
    return MonotonicityReport(p.n, grid, checks, tuple(violations))
