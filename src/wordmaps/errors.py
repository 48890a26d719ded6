"""Exception types shared across the package.

Exit-code mapping used by the CLI:
  2 -- WordSyntaxError / usage errors
  3 -- HypothesisError (a named precondition of a check failed)
  4 -- BudgetExceededError
  5 -- InternalInvariantError
"""


class WordSyntaxError(ValueError):
    """Malformed word literal; carries the 0-based position of the offender."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HypothesisError(ValueError):
    """A named mathematical hypothesis of an operation does not hold."""

    def __init__(self, hypothesis: str, detail: str = ""):
        msg = f"hypothesis violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.hypothesis = hypothesis
        self.detail = detail


# Default work budget of the library and of the CLI's --budget: Tr/Phi
# quotient-search steps, or Hom tuples x word length.  It lives here,
# beside the error it triggers, so that building the CLI parser loads no
# computing module.
DEFAULT_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """The requested computation exceeds the configured work budget."""


class InternalInvariantError(AssertionError):
    """An invariant the implementation relies on failed; signals a bug."""
