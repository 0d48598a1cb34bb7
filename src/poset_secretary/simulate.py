"""Continuous-time arrival process and the threshold acceptance strategy.

Elements arrive at i.i.d. uniform times in [0, 1] and are assigned i.i.d.
uniform weights on arrival.  An arrival is *tagged* when it is the greedy
maximum of the induced order on everything exposed so far (itself included).
The strategy rejects everything up to a threshold tau and accepts the first
tagged arrival strictly after it; the run succeeds when the accepted element
is maximal in the full poset.

The per-trial code here is the auditable reference: decisions at time t only
consult order relations among already-exposed elements plus the weights the
selector assigned itself.  Full-poset knowledge enters afterwards, when the
outcome is adjudicated.  The vectorized batch engine is pinned to this
reference by tests.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .greedy import WeightRanking
from .posets import Poset

__all__ = [
    "TAU_DEFAULT",
    "Trial",
    "TagEvent",
    "Outcome",
    "sample_trial",
    "run_strategy",
    "tag_sequence",
]

# Classical threshold, nearest float.
TAU_DEFAULT = 1.0 / math.e


@dataclass(frozen=True)
class Trial:
    """Arrival time and weight per element, both in [0, 1].

    Exact float collisions have probability zero; where an order is needed
    they are broken deterministically by element index.
    """

    arrival_times: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.arrival_times, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if times.ndim != 1 or times.shape != weights.shape:
            raise ValueError("arrival_times and weights must be equal-length vectors")
        if times.size == 0:
            raise ValueError("a trial needs at least one element")
        for name, arr in (("arrival_times", times), ("weights", weights)):
            if not ((arr >= 0) & (arr <= 1)).all():  # NaN fails both compares
                raise ValueError(f"{name} must lie in [0, 1]")
        times.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "arrival_times", times)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.arrival_times.size

    def arrival_order(self) -> np.ndarray:
        """Element ids sorted by arrival time (index breaks ties)."""
        return np.lexsort((np.arange(self.n), self.arrival_times))


@dataclass(frozen=True)
class TagEvent:
    time: float
    element: int
    tagged: bool


@dataclass(frozen=True)
class Outcome:
    """Accepted element (if any), its time, the success flag, the full log."""

    accepted: int | None
    accept_time: float | None
    success: bool
    log: tuple[TagEvent, ...]


def sample_trial(n: int, trial_rng: np.random.Generator) -> Trial:
    """Draw one trial: n uniform arrival times, then n uniform weights."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    times = trial_rng.random(n)
    weights = trial_rng.random(n)
    return Trial(times, weights)


def _check_dims(p: Poset, trial: Trial) -> None:
    if trial.n != p.n:
        raise DimensionError(f"trial has {trial.n} elements, poset has {p.n}")


def tag_sequence(p: Poset, trial: Trial) -> list[TagEvent]:
    """Tag flag for every arrival, independent of any threshold.

    When x arrives, the arrived set is scanned in increasing weight order,
    jumping whenever the next element lies strictly above the current one;
    the scan ends at the greedy maximum of the exposed order, and x is tagged
    iff that is x itself.  Only relations among exposed elements are read.
    """
    _check_dims(p, trial)
    order = trial.arrival_order()
    rank = WeightRanking.from_weights(trial.weights).rank
    lt = p.lt
    arrived: list[tuple[int, int]] = []  # (weight rank, element), kept sorted
    log = []
    for x in order:
        x = int(x)
        insort(arrived, (rank[x], x))
        z = arrived[0][1]
        for _, y in arrived[1:]:
            if lt[z, y]:
                z = y
        log.append(TagEvent(float(trial.arrival_times[x]), x, z == x))
    return log


def run_strategy(p: Poset, trial: Trial, tau: float = TAU_DEFAULT) -> Outcome:
    """Reject everything up to tau, accept the first tagged arrival after it.

    Acceptance needs time strictly greater than tau.  Success means the
    accepted element is maximal in the full poset; with no acceptance the
    outcome carries accepted=None and success=False.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")
    _check_dims(p, trial)
    log = tag_sequence(p, trial)
    accepted = None
    accept_time = None
    for ev in log:
        if ev.tagged and ev.time > tau:
            accepted = ev.element
            accept_time = ev.time
            break
    success = accepted is not None and accepted in p.maximal
    return Outcome(accepted, accept_time, success, tuple(log))
