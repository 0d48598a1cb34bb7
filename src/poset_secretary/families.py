"""Canonical and random poset families for the verification bench.

The random model is the random graph order: fix the identity permutation as
an underlying linear order, keep each pair (i, j) with i < j independently
with probability p, and transitively close.  p=0 gives the antichain, p=1
the chain, so one knob spans the whole range the success-probability bound
has to survive.

Each family is one row of `FAMILIES`, whose grammar comment is the one
statement of the generator-spec syntax; `parse_generator_spec`, `GeneratorSpec`
and the CLI all read that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .engine import SIM_CAP, check_sim_cap
from .errors import GeneratorSpecError, TooLargeError
from .posets import Poset, from_relations

__all__ = [
    "chain",
    "antichain",
    "wedge",
    "boolean_lattice",
    "random_poset",
    "forest_of_chains",
    "Family",
    "FAMILIES",
    "GeneratorSpec",
    "parse_generator_spec",
]


def chain(n: int) -> Poset:
    """Linear order 0 < 1 < ... < n-1."""
    return from_relations(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    """n pairwise incomparable elements."""
    return from_relations(n, [])


def wedge() -> Poset:
    """One bottom element below two incomparable tops: {0 < 1, 0 < 2}."""
    return from_relations(3, [(0, 1), (0, 2)])


def boolean_lattice(k: int) -> Poset:
    """Subsets of a k-set ordered by strict inclusion (element id = bitmask).

    Takes every k >= 1 with 2^k <= SIM_CAP; past it raises TooLargeError.
    """
    if k < 1:
        raise ValueError(f"boolean_lattice needs k >= 1, got {k}")
    n = _boolean_size(k)
    check_sim_cap(n)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and a & b == a]
    return from_relations(n, pairs)


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Random graph order: each pair i < j kept with probability p, closed."""
    if n < 1:
        raise ValueError(f"random_poset needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    coin = rng.random((n, n)) < p
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if coin[i, j]]
    return from_relations(n, pairs)


def forest_of_chains(lengths: Sequence[int]) -> Poset:
    """Disjoint union of chains; one maximal element per chain."""
    lengths = [int(m) for m in lengths]
    if not lengths or any(m < 1 for m in lengths):
        raise ValueError("forest_of_chains needs a nonempty list of lengths >= 1")
    pairs = []
    base = 0
    for m in lengths:
        pairs.extend((base + i, base + i + 1) for i in range(m - 1))
        base += m
    return from_relations(base, pairs)


def _boolean_size(k: int) -> int:
    """2^k; an exponent past SIM_CAP's bit length is refused before 2^k is built."""
    if k > SIM_CAP.bit_length():
        raise TooLargeError(f"boolean:{k} has 2^{k} elements, over the size cap n <= {SIM_CAP}")
    return 1 << max(k, 0)


def _ints(token: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in token.split(","))


class Family(NamedTuple):
    """One generator family: its name, parameter tokens, size rule and builder.

    Each token is (label, parse); the size rule and the builder take the
    parsed values in token order.
    """

    name: str
    tokens: tuple[tuple[str, Callable[[str], object]], ...]
    size: Callable[..., int]
    build: Callable[..., Poset]

    @property
    def grammar(self) -> str:
        return ":".join([self.name, *(label for label, _ in self.tokens)])


# The generator-spec grammar, one spec per string; README's CLI section
# repeats this line and a test keeps the two equal:
#     chain:N   antichain:N   wedge   boolean:K   forest:L1,L2,...   random:N:P:SEED
FAMILIES = {f.name: f for f in (
    Family("chain", (("N", int),), lambda n: n, chain),
    Family("antichain", (("N", int),), lambda n: n, antichain),
    Family("wedge", (), lambda: 3, wedge),
    Family("boolean", (("K", int),), _boolean_size, boolean_lattice),
    Family("forest", (("L1,L2,...", _ints),), sum, forest_of_chains),
    Family("random", (("N", int), ("P", float), ("SEED", int)), lambda n, p, seed: n, random_poset),
)}


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed family:params text, buildable into a Poset.

    `params` holds the parsed values of the family's tokens in `FAMILIES`,
    whose comment gives the grammar.
    """

    family: str
    params: tuple = ()

    @property
    def n(self) -> int:
        """Element count of the poset build() makes, from the parameters alone.

        Nothing is built or validated, so a caller can check a size cap
        before build() allocates its n-by-n relation.  boolean:K with K past
        the cap's bit length raises TooLargeError here, so 2^K is never
        built.
        """
        return FAMILIES[self.family].size(*self.params)

    def build(self) -> Poset:
        return FAMILIES[self.family].build(*self.params)


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse family[:param]* syntax; wrong shape raises GeneratorSpecError.

    Syntax problems (unknown family, wrong arity, non-numeric tokens) raise
    here; out-of-range values surface later from build() as ValueError.
    """
    name, *tokens = text.strip().split(":")
    family = FAMILIES.get(name)
    if family is None:
        raise GeneratorSpecError(f"unknown poset family {name!r}")
    try:  # a wrong token count is a ValueError too, from zip(strict=True)
        params = tuple(parse(token) for (_, parse), token in zip(family.tokens, tokens, strict=True))
    except ValueError:
        raise GeneratorSpecError(f"expected {family.grammar}, got {text!r}") from None
    return GeneratorSpec(name, params)
