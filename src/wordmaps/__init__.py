"""Word measures on finite groups: freely reduced words, core graphs,
algebraic extensions and primitivity ranks, exact expected-fixed-point
functionals with their poset derivation, and the d-th power calculus of
permutations."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    HypothesisError,
    InternalInvariantError,
    WordSyntaxError,
)
from .words import (
    Word,
    WhiteheadMove,
    cyclic_reduce,
    enumerate_whitehead_moves,
    is_dth_power_in_free,
    maximal_root,
    parse,
    substitute,
)
from .stallings import CoreGraph, fold, from_generators, rose
from .extensions import (
    ExtensionPoset,
    algebraic_extensions,
    ff_closure,
    is_free_factor,
    pi,
    pi_details,
    pi_iota,
    pi_of_word,
)
from .measures import (
    FiniteGroupTable,
    MeasureComparison,
    MeasureTable,
    compare_measures,
    epi_image,
    phi_exact,
    trw_exact,
    trw_monte_carlo,
    word_measure_exact,
)
from .mobius import (
    DerivationTable,
    FitResult,
    check_power_gap,
    check_substitution_inequality,
    derive_R,
    fit_expansion,
    phi_via_expansion,
)
from .perm_powers import (
    CycleType,
    cycle_type,
    dth_root,
    is_dth_power,
    moments_exact,
    parse_cycles,
    power_of_permutation,
    word_power_obstruction,
)
