"""Exception taxonomy.

Every error carries an exit_code so the command-line front end can map
failures to process status without a lookup table: 1 for usage/parse
problems, 2 for domain errors (well-formed input, impossible request),
3 for exhausted randomized budgets.
"""


class UtpolyError(Exception):
    exit_code = 2


class ParseError(UtpolyError):
    """Malformed input text. Carries the offset where scanning stopped."""

    exit_code = 1

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UsageError(UtpolyError):
    exit_code = 1


# -- domain errors (exit code 2) --------------------------------------------


class ConstantTermError(UtpolyError):
    """Polynomial has a nonzero constant term; everything here assumes none."""


class VariableOutOfRange(UtpolyError):
    pass


class FieldMismatch(UtpolyError):
    pass


class ArityMismatch(UtpolyError):
    pass


class SizeMismatch(UtpolyError):
    pass


class UnboundVariable(UtpolyError):
    pass


class ZeroInput(UtpolyError):
    pass


class NoRootInField(UtpolyError):
    """Univariate equation has no solution in the given field."""


class ResourceLimit(UtpolyError):
    """A hard structural limit (monomial count) was exceeded."""


class BandViolation(UtpolyError):
    """Target matrix lies outside the band the image is confined to."""


class OrderMismatch(UtpolyError):
    """Operation requires a specific order regime (e.g. r >= 1)."""


class InternalInconsistency(UtpolyError):
    """A structural guarantee failed; indicates a bug, not bad input."""


# -- budget errors (exit code 3) ---------------------------------------------


class BudgetError(UtpolyError):
    exit_code = 3


class BudgetExhausted(BudgetError):
    """Randomized search used up its attempt budget."""


class DegenerateCoefficient(BudgetError):
    """Every retry produced a vanishing pivot coefficient for some entry."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NonConvergence(BudgetError):
    """Numeric root iteration failed to converge within its budget."""
