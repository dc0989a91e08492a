"""Exception taxonomy shared across the package."""

from __future__ import annotations


class GroupConvexError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GroupConvexError):
    pass


class GroupMismatch(GroupConvexError):
    pass


class MetricGroupMismatch(GroupConvexError):
    pass


class UnsupportedCombination(MetricGroupMismatch):
    """A metric kind defined only on finite groups, given a lattice."""


class NotDivisible(GroupConvexError):
    pass


class NotAHomomorphism(GroupConvexError):
    """A matrix entry violates the congruence that makes the map additive."""

    def __init__(self, row: int, col: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col


class RhoNotCertifiedBelowOne(GroupConvexError):
    pass


class NotComplete(GroupConvexError):
    pass


class SNotInvertible(GroupConvexError):
    pass


class UnsupportedMixedSum(GroupConvexError):
    pass


class NotFinite(GroupConvexError):
    pass


class NotEnumerable(GroupConvexError):
    pass


class EmptySet(GroupConvexError):
    pass


class UnsupportedRepresentation(GroupConvexError):
    pass


class HypothesisFailed(GroupConvexError):
    """A checker's hypothesis does not hold; distinct from a refutation."""

    def __init__(self, hypothesis: str, detail: str = ""):
        message = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(message)
        self.hypothesis = hypothesis
        self.detail = detail


class GeneratorExhausted(GroupConvexError):
    pass


class InvariantViolated(GroupConvexError):
    """A result failed the check run on it before returning; signals a bug."""


class ParseError(GroupConvexError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(GroupConvexError):
    """Eager session validation failed; carries the offending witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
