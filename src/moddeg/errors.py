"""Exception types shared across the library."""


class ModdegError(Exception):
    """Base class for all errors raised by this library."""


class DimensionMismatch(ModdegError):
    """Operands have incompatible dimensions."""


class FieldMismatch(ModdegError):
    """Operands live over different ground fields."""


class AlgebraMismatch(ModdegError):
    """Operands are defined over different algebra presentations."""


class NotContained(ModdegError):
    """A subspace was required to contain another and does not."""


class NotSubmodule(ModdegError):
    """A subspace is not invariant under the algebra action."""


class Undecided(ModdegError):
    """A bounded search finished without a witness or a disproof.

    Distinct from a verified negative answer: callers must not treat this
    as False.
    """


class NoLift(ModdegError):
    """Certificate composition found no lifting map.

    The composed degeneration still holds mathematically; only this
    explicit construction is unavailable.  ``trace`` carries partial
    progress when raised from a chain computation.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class InternalInvariantViolation(ModdegError):
    """A property that is mathematically guaranteed failed at runtime.

    Indicates a bug in this library (or corrupted inputs), never a
    legitimate negative answer.
    """


class SimpleNotOneDimensional(ModdegError):
    """Composition-series extraction found a simple quotient that is not
    one-dimensional; the algebra is outside the basic split scope."""


class VectorMismatch(ModdegError):
    """Two composition series have different composition vectors."""


class FieldTooSmall(ModdegError):
    """The ground field has too few elements for the generic-element
    argument and exhaustive search is not feasible."""


class NoAdaptedBasis(ModdegError):
    """The greedy adapted-basis selection found no eligible vector."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class BadParameter(ModdegError):
    """The deformation parameter lies outside the good set."""


class TriangularityViolated(ModdegError):
    """A matrix expected to be upper triangular is not."""


class VerificationFailed(ModdegError):
    """A constructed certificate failed its own verification."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TooLarge(ModdegError):
    """An enumeration would exceed its size bound
    (``linalg.ENUMERATION_LIMIT``) or has no finite field to run over."""


class ParseError(ModdegError):
    """A document failed to parse."""

    def __init__(self, message, line=None, column=None, path=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}, column {column}"
        elif path:
            loc = f" at {path}"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.path = path
