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


class BudgetExceeded(AdicspaceError):
    code = "BudgetExceeded"


DEFAULT_BUDGET = 1 << 20  # terms, monomials or pairs that derived work may make, unless set
SIZE_CAP = DEFAULT_BUDGET  # the fixed cap on the sizes a preset or a continued fraction asks for


def check_budget(what: str, size: int, budget: int) -> int:
    """``size``, or a BudgetExceeded naming ``what`` when it is over ``budget``."""
    if size > budget:
        raise BudgetExceeded(f"{what} = {size} exceeds the budget {budget}")
    return size


TEXT_DIGITS = 4300  # Python's default limit on int-to-str: the most digits a report writes
_TEXT_CAP = 10 ** TEXT_DIGITS


def decimal_digits(x: int) -> int:
    """The decimal digits of |x|, counted without ``str(x)``, which Python refuses past TEXT_DIGITS."""
    x = abs(x)
    digits = max(1, x.bit_length() * 30102 // 100000)  # at most the digit count
    while 10 ** digits <= x:
        digits += 1
    return digits


def check_digits(what: str, x: int) -> None:
    """A BudgetExceeded naming ``what`` when |x| has more than TEXT_DIGITS digits."""
    if abs(x) >= _TEXT_CAP:
        check_budget(f"the decimal digits of {what}", decimal_digits(x), TEXT_DIGITS)


def check_text_digits(what: str, text: str) -> str:
    """``text``, or a BudgetExceeded naming ``what`` where a part between "/" is too long for int()."""
    if len(text) > TEXT_DIGITS:
        for part in text.split("/"):
            check_budget(f"the decimal digits of {what}", sum(map(str.isdigit, part)), TEXT_DIGITS)
    return text


class UsageError(AdicspaceError):
    code = "UsageError"
