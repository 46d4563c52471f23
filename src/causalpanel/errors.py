"""Exception hierarchy shared across the toolkit.

The CLI maps these onto distinct exit codes (parse=2, validation=3,
numerical=4, io=5), so estimators should raise the most specific class
that applies and always name the offending input in the message.
"""


class CausalPanelError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CausalPanelError):
    """A source file could not be parsed (bad delimiter, date, or number)."""


class ValidationError(CausalPanelError, ValueError):
    """Inputs parsed but violate a documented invariant or precondition.

    It is also a ValueError: a check rejects a value, and a caller that
    catches ValueError from the estimators catches it too. The CLI maps it
    to exit 3; a bare ValueError is a fault of the program, not mapped."""


class SchemaError(ValidationError):
    """A required column or feature name is absent or mismatched."""


class SpecError(ValidationError):
    """An estimator specification is inconsistent with the data it targets."""


class NumericalError(CausalPanelError):
    """A numerical routine cannot produce a trustworthy result."""


class SingularDesignError(NumericalError):
    """Design matrix is rank deficient; message names the offending columns."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class DiagnosticUnavailableError(ValidationError):
    """Not enough data to run the requested diagnostic."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at its budget without meeting tolerance;
    the best iterate is still returned."""
