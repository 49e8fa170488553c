"""Error taxonomy shared by all modules.

Every rejection carries a stable machine-readable ``code`` so the CLI can
emit it verbatim in JSON reports.
"""


class AdicspaceError(Exception):
    """Base class; ``code`` is the stable identifier for reports."""

    code = "AdicspaceError"

    def __init__(self, message=""):
        super().__init__(message or self.code)
        self.message = message or self.code


class MissingRoot(AdicspaceError):
    code = "MissingRoot"


class EmptyFiber(AdicspaceError):
    code = "EmptyFiber"


class BadOrder(AdicspaceError):
    code = "BadOrder"


class BadMeasure(AdicspaceError):
    code = "BadMeasure"


class BadInput(AdicspaceError):
    code = "BadInput"


class DepthExceeded(AdicspaceError):
    code = "DepthExceeded"


class IncompatiblePaths(AdicspaceError):
    code = "IncompatiblePaths"


class DimensionMismatch(AdicspaceError):
    code = "DimensionMismatch"


class RangeError(AdicspaceError):
    code = "RangeError"


class InsufficientDepth(AdicspaceError):
    code = "InsufficientDepth"


class PointOutsideTower(AdicspaceError):
    code = "PointOutsideTower"


class TopLevel(AdicspaceError):
    code = "TopLevel"


class TruncationBoundary(AdicspaceError):
    code = "TruncationBoundary"


class BudgetExceeded(AdicspaceError):
    code = "BudgetExceeded"


DEFAULT_BUDGET = 1 << 20  # terms, monomials or pairs that derived work may make, unless set
SIZE_CAP = DEFAULT_BUDGET  # the fixed cap on the sizes a preset or a continued fraction asks for


def check_budget(what: str, size: int, budget: int) -> int:
    """``size``, or a BudgetExceeded naming ``what`` when it is over ``budget``."""
    if size > budget:
        raise BudgetExceeded(f"{what} = {size} exceeds the budget {budget}")
    return size


class UsageError(AdicspaceError):
    code = "UsageError"
