"""Word measures on finite groups: freely reduced words, core graphs,
algebraic extensions and primitivity ranks, exact expected-fixed-point
functionals with their poset derivation, and the d-th power calculus of
permutations.

`import wordmaps` loads only this file and `wordmaps.errors`.  Every
other name below, and every submodule (`wordmaps.measures`, ...), is
imported the first time it is used, so a caller pays only for the
modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    HypothesisError,
    InternalInvariantError,
    WordSyntaxError,
)

# Public name -> submodule that defines it; resolved on first access.
_LAZY = {
    name: module
    for module, names in {
        "words": ["Word", "WhiteheadMove", "cyclic_reduce", "enumerate_whitehead_moves",
                  "is_dth_power_in_free", "maximal_root", "parse", "substitute"],
        "stallings": ["CoreGraph", "fold", "from_generators", "rose"],
        "extensions": ["ExtensionPoset", "algebraic_extensions", "ff_closure", "is_free_factor",
                       "pi", "pi_details", "pi_iota", "pi_of_word"],
        "measures": ["FiniteGroupTable", "MeasureComparison", "MeasureTable", "compare_measures",
                     "epi_image", "phi_exact", "trw_exact", "trw_monte_carlo",
                     "word_measure_exact"],
        "mobius": ["DerivationTable", "FitResult", "check_power_gap",
                   "check_substitution_inequality", "derive_R", "fit_expansion",
                   "phi_via_expansion"],
        "perm_powers": ["CycleType", "cycle_type", "dth_root", "is_dth_power", "moments_exact",
                        "parse_cycles", "power_of_permutation", "word_power_obstruction"],
    }.items()
    for name in names
}

_SUBMODULES = set(_LAZY.values())

__all__ = [
    "BudgetExceededError",
    "HypothesisError",
    "InternalInvariantError",
    "WordSyntaxError",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
