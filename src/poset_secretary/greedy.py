"""Greedy-maximum chains, tagging, and exact greedy-maximum distributions.

Given distinct weights on a poset's elements, the greedy chain starts at the
globally lightest element and repeatedly steps to the lightest element
strictly above the current one; its terminal element is the greedy maximum.
With i.i.d. Uniform(0, 1) weights, mu(x) is the probability that x ends the
chain, and mu_t(x) is the same conditioned on x's weight being at most t.

Both are computed exactly from one recursion, which is exact because the
greedy chain is a Markov chain.  Say the chain stands at z with weight w, and
k_z elements lie above z.  Every condition the walk so far placed on those
elements says only "heavier than some chain weight <= w", so they are i.i.d.
Uniform(w, 1), and the chain steps to each of them at weight u with density
(1-u)^(k_z-1) / (1-w)^k_z.  The density f_y(u) of visiting y at weight u is
therefore

    f_y(u) = (1-u)^(n-1) + sum over z < y of
             integral from 0 to u of f_z(w) (1-u)^(k_z-1) / (1-w)^k_z dw,

where the first term is y being the lightest of all.  In v = 1-u each f_z is
v^k_z times a polynomial, so each step is a coefficient shift and an
integration in exact rationals: O(n^3) operations in all.  A maximal x ends
the chain whenever it is visited, so mu(x) is the integral of f_x over
[0, 1], and mu_t(x) is (1/t) times its integral over [0, t], with
f_x(0) = 1 at t = 0.

greedy_chain is the per-trial reference.  The vectorised greedy scans live
in engine, beside the tag kernel: its triangle, and the bitmask scan behind
lemma 4's pinned check, whose pin at t = 1 is batch_greedy_maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NotMaximalError
from .posets import Poset

__all__ = [
    "WeightRanking",
    "MuTable",
    "greedy_chain",
    "greedy_maximum",
    "is_tagged",
    "mu_exact",
    "mu_t_exact",
    "check_mu_monotonicity",
    "MonotonicityReport",
]


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


@dataclass(frozen=True)
class MuTable:
    """Exact per-element probability of being the greedy maximum, and mu_t.

    integrals[x] holds the coefficients of the integral from 0 to v of
    f_x(1 - s) ds, lowest first: the poset's one density table, from which
    mu and every mu_t are read.
    """

    values: tuple[Fraction, ...]
    integrals: tuple[tuple[Fraction, ...], ...] = field(repr=False, compare=False)
    maximal: frozenset[int] = field(repr=False, compare=False)

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def mu_t(self, x: int, t) -> Fraction:
        """mu(x) conditioned on x's weight being at most t, exactly.

        Defined only for maximal x, where it is (1/t) times the integral of
        f_x over [0, t].  At t=1 the value equals mu(x); at t=0 it is
        f_x(0) = 1.
        """
        t = _as_unit_fraction(t)
        if not 0 <= x < len(self.values):
            raise IndexError(f"element {x} out of range for n={len(self.values)}")
        if x not in self.maximal:
            raise NotMaximalError(f"element {x} is not maximal")
        if t == 0:
            return Fraction(1)
        integral = self.integrals[x]
        return (sum(integral) - sum(a * (1 - t) ** i for i, a in enumerate(integral))) / t


def greedy_chain(p: Poset, w: WeightRanking) -> tuple[int, ...]:
    """The chain z_0 < z_1 < ... < z_m walked by the greedy recursion for w.

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
            return tuple(out)
        z = int(min(above, key=lambda y: rank[y]))
        out.append(z)


def greedy_maximum(p: Poset, w: WeightRanking) -> int:
    """Terminal element of the greedy chain; always maximal in p."""
    return greedy_chain(p, w)[-1]


def is_tagged(p_x: Poset, x_local: int, w: WeightRanking) -> bool:
    """Is x the greedy maximum of the poset exposed up to its own arrival?

    ``p_x`` is the induced poset on everything exposed by the time x arrives
    (including x); ``x_local`` names x inside it.
    """
    return greedy_maximum(p_x, w) == x_local


def _antiderivative(c: list[Fraction]) -> list[Fraction]:
    """Coefficients of the integral from 0 to v of the polynomial c (lowest first)."""
    return [Fraction(0)] + [a / (i + 1) for i, a in enumerate(c)]


def _visit_densities(p: Poset) -> list[list[Fraction]]:
    """Per element y, the coefficients of f_y(1 - v) in v, lowest first.

    Elements go in order of their count of elements below, so every z < y is
    done before y.  z < y contributes v^(k_z - 1) times the integral from v
    to 1 of f_z(1 - s) / s^k_z, a polynomial once the low coefficients
    (all zero) are shifted out.
    """
    n = p.n
    k = p.lt.sum(axis=1)
    f: list[list[Fraction]] = [[]] * n
    for y in np.argsort(p.lt.sum(axis=0), kind="stable"):
        c = [Fraction(0)] * n
        c[n - 1] = Fraction(1)
        for z in np.flatnonzero(p.lt[:, y]):
            step = _antiderivative(f[z][k[z]:])
            c[k[z] - 1] += sum(step)
            for i, a in enumerate(step[1:], start=k[z]):
                c[i] -= a
        f[y] = c
    return f


def mu_exact(p: Poset) -> MuTable:
    """Exact greedy-maximum distribution: mu(x) = integral of f_x over [0, 1].

    The returned table also gives every mu_t (see MuTable.mu_t).
    """
    integrals = tuple(tuple(_antiderivative(c)) for c in _visit_densities(p))
    values = tuple(sum(integrals[x]) if x in p.maximal else Fraction(0) for x in range(p.n))
    # The chain always ends at a maximal element and some chain always exists.
    assert sum(values) == 1
    return MuTable(values, integrals, p.maximal)


def _as_unit_fraction(t) -> Fraction:
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return t


def mu_t_exact(p: Poset, x: int, t) -> Fraction:
    """mu(x) conditioned on x's weight being at most t, exactly (see MuTable.mu_t)."""
    return mu_exact(p).mu_t(x, t)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the exact mu_t >= mu sweep over a t-grid."""

    checks: int
    violations: tuple[tuple[int, Fraction, Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_mu_monotonicity(table: MuTable, grid) -> MonotonicityReport:
    """Assert mu_t(x) >= mu(x) for every maximal x and grid point, exactly.

    Lowering an element's weight can only help it terminate the chain, so a
    violation would mean a bug; the report lists any (there must be none).
    Every value is read from ``table`` (see mu_exact).
    """
    grid = tuple(_as_unit_fraction(t) for t in grid)
    violations = []
    checks = 0
    for x in sorted(table.maximal):
        for t in grid:
            val = table.mu_t(x, t)
            checks += 1
            if val < table[x]:
                violations.append((x, t, val, table[x]))
    return MonotonicityReport(checks, tuple(violations))
