"""Exception types shared across the package."""


class FgquadError(Exception):
    """Base class for all package errors."""


class WordSyntaxError(FgquadError, ValueError):
    """Malformed word text; ``offset`` is the byte offset of the error."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class BasisMismatch(FgquadError, ValueError):
    """Operands live in different bases of the free group."""


class EpsilonMismatch(FgquadError, ValueError):
    """Operands carry different orientation signs."""


class DomainMismatch(FgquadError, ValueError):
    """Coefficient domains (integer vs mod-2) do not agree."""


class NotDivisible(FgquadError, ArithmeticError):
    """Exact division in the group ring left a nonzero remainder."""


class NotInKernel(FgquadError, ValueError):
    """Word does not lie in the normal closure of the relator."""


class NotMixedCase(FgquadError, ValueError):
    """Equation parameters fall outside the four mixed families."""

    def __init__(self, message: str, branch: str | None = None) -> None:
        super().__init__(message)
        self.branch = branch


class CaseMismatch(FgquadError, ValueError):
    """Ring element does not match the mixed-case parameters."""


class SingularBase(FgquadError, ValueError):
    """Twisted augmentation requested at a singular base point."""


class InconsistentSign(FgquadError, ArithmeticError):
    """A support element resolved to contradictory branch signs."""


class ExtractionFailed(FgquadError, ArithmeticError):
    """A Wicks match did not reassemble into a verified solution."""


class WitnessUnverified(FgquadError, ArithmeticError):
    """A branch witness failed its substitution check or its solution class."""


class BudgetExceeded(FgquadError, RuntimeError):
    """Search exceeded its configured budget."""


class InvalidBudget(FgquadError, ValueError):
    """A search budget is not positive."""


class InvalidSpec(FgquadError, ValueError):
    """A parameter is outside its domain: a sign other than +1 or -1, a zero
    n, an unknown solution class, frame, basis kind or generator, or an
    orientation-reversing translation element."""
