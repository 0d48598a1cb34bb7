"""Simulation and verification toolkit for secretary problems on partial orders.

The library models the online selection game in which candidates arrive at
independent uniform times, each exposing only its order relations to the
candidates already seen, and the decision maker wants to stop on a maximal
element.  It provides:

- immutable poset values and standard example families (`posets`, `families`);
- the greedy-maximum construction, its tagging rule, and exact rational
  distributions mu / mu_t for small ground sets (`greedy`);
- single-trial simulation of the threshold strategy (`simulate`) and a
  vectorised, reproducibly parallel Monte Carlo engine (`engine`,
  `montecarlo`);
- statistical verification of the tag process's distributional laws and of
  the 1/e success guarantee (`montecarlo`);
- a text file format for posets (`posetfile`) and a CLI (`cli`).
"""

from .errors import (
    CycleError,
    DimensionError,
    EmptyPosetError,
    GeneratorSpecError,
    NotMaximalError,
    PosetFileError,
    PosetSecretaryError,
    TooLargeError,
    ZeroTrialsError,
)
from .families import (
    GeneratorSpec,
    antichain,
    boolean_lattice,
    chain,
    forest_of_chains,
    parse_generator_spec,
    random_poset,
    wedge,
)
from .greedy import (
    MonotonicityReport,
    MuTable,
    WeightRanking,
    check_mu_monotonicity,
    greedy_chain,
    greedy_maximum,
    is_tagged,
    mu_exact,
    mu_t_exact,
)
from .montecarlo import (
    ALPHA_DEFAULT,
    CONFIDENCE_DEFAULT,
    TRIALS_DEFAULT,
    Estimate,
    LemmaReport,
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
from .posetfile import format_poset_text, parse_poset_text
from .posets import Poset, from_relations, induced_subposet, transitive_reduction
from .simulate import TAU_DEFAULT, Outcome, TagEvent, Trial, run_strategy, sample_trial, tag_sequence

__version__ = "0.1.0"

__all__ = [
    "ALPHA_DEFAULT",
    "CONFIDENCE_DEFAULT",
    "CycleError",
    "DimensionError",
    "EmptyPosetError",
    "Estimate",
    "GeneratorSpec",
    "GeneratorSpecError",
    "LemmaReport",
    "MonotonicityReport",
    "MuTable",
    "NotMaximalError",
    "Outcome",
    "Poset",
    "PosetFileError",
    "PosetSecretaryError",
    "TAU_DEFAULT",
    "TRIALS_DEFAULT",
    "TagEvent",
    "TooLargeError",
    "Trial",
    "WeightRanking",
    "ZeroTrialsError",
    "antichain",
    "boolean_lattice",
    "chain",
    "check_mu_monotonicity",
    "empirical_greedy_max",
    "estimate_success",
    "forest_of_chains",
    "format_poset_text",
    "from_relations",
    "greedy_chain",
    "greedy_maximum",
    "induced_subposet",
    "is_tagged",
    "mu_exact",
    "mu_t_exact",
    "parse_generator_spec",
    "parse_poset_text",
    "random_poset",
    "run_strategy",
    "sample_trial",
    "tag_sequence",
    "threshold_sweep",
    "transitive_reduction",
    "verify_last_tag_uniform",
    "verify_lemmas",
    "verify_tag_independence",
    "verify_tag_joint",
    "verify_tag_marginals",
    "verify_tagged_given_arrival",
    "wilson_interval",
    "__version__",
]
