"""Exception and warning types shared across the package."""


class EdgeperfError(Exception):
    """Base class for all domain errors raised by edgeperf."""


class ParseError(EdgeperfError):
    """Malformed profile or data file. Carries the offending line when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateId(EdgeperfError):
    """Profile id repeated within one profile file."""


class InvariantViolation(EdgeperfError):
    """A typed value violates one of its declared invariants. Carries the
    data-file line of the offending row when known."""

    def __init__(self, field, rule, line=None):
        self.field = field
        self.rule = rule
        self.line = line
        message = f"{field}: {rule}"
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class UnknownModel(EdgeperfError):
    """Profile id not present in the registry."""

    def __init__(self, model_id):
        self.model_id = model_id
        super().__init__(f"unknown model id {model_id!r}")


class MissingCoefficient(EdgeperfError):
    """The profile lacks the coefficient set an operation needs."""

    def __init__(self, model_id, coefficient_set):
        self.model_id = model_id
        self.coefficient_set = coefficient_set
        super().__init__(f"profile {model_id!r} has no {coefficient_set} coefficients")


def _shown(value) -> str:
    """str(value), but an int too long for str() is named by its size."""
    try:
        return str(value)
    except ValueError:  # str() refuses an int of more than 4300 digits
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


class DomainError(EdgeperfError):
    """Argument outside an operation's numeric domain. With ``got``, the
    message ends in the refused value, shown by :func:`_shown`."""

    def __init__(self, message, got=None):
        if got is not None:
            message = f"{message}, got {_shown(got)}"
        super().__init__(message)


class NonpositiveTBT(EdgeperfError):
    """The linear time-between-tokens form is non-positive at the requested context."""


class InfeasibleBudget(EdgeperfError):
    """Latency budget below the prefill cost: not even zero output tokens fit."""


class UnitUndeclared(EdgeperfError):
    """Energy arithmetic would mix values whose fitted unit is not declared."""


class InsufficientData(EdgeperfError):
    """Too few (or too few distinct) points to determine the fit."""


class DegenerateDesign(EdgeperfError):
    """Design matrix is rank-deficient (collinear features)."""


class LengthMismatch(EdgeperfError):
    """Prediction and actual vectors differ in length."""


class ZeroActual(EdgeperfError):
    """MAPE undefined: an actual value is zero."""


class EmptyInput(EdgeperfError):
    """Operation requires at least one element."""


class ZeroPrefill(EdgeperfError):
    """Phase-ratio denominator (prefill aggregate) is zero."""


class ImplausibleWattsWarning(UserWarning):
    """Model evaluated to a power draw above the platform envelope."""


class NoDecayDetectedWarning(UserWarning):
    """Exponential-decay fit collapsed to a constant (best A <= 0)."""


class ZeroDecodeWarning(UserWarning):
    """Phase ratios computed from data with no decode activity."""
