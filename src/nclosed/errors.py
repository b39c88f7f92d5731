"""Exception taxonomy.

Everything this package raises on bad input or broken invariants derives
from NClosedError, so callers (and the CLI) can distinguish domain errors
from programming errors with one except clause.
"""

from __future__ import annotations


class NClosedError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# Cayley-table validation


class TableValidationError(NClosedError):
    """A candidate Cayley table failed one of the structure axioms."""


class NotClosed(TableValidationError):
    def __init__(self, row: int, col: int, value: object):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"table entry [{row}][{col}] = {value!r} is not an index in range")


class NotAssociative(TableValidationError):
    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        x, y, z = witness
        super().__init__(f"associativity fails at ({x}, {y}, {z}): (x*y)*z != x*(y*z)")


class NoIdentity(TableValidationError):
    def __init__(self) -> None:
        super().__init__("no two-sided identity element exists")


class NoInverse(TableValidationError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class DuplicateLabel(TableValidationError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"label {label!r} appears more than once")


class TableFileError(NClosedError):
    """A Cayley-table JSON file is missing, unreadable, or malformed."""


# ---------------------------------------------------------------------------
# Construction limits and element plumbing


class UnsupportedParameter(NClosedError):
    """Named-family parameter outside its supported range."""


class GroupTooLarge(NClosedError):
    """Requested structure exceeds the dense-table order cap."""


class GroupTooLargeForScan(NClosedError):
    """Group order exceeds a command-specific enumeration cap."""


class MixedStructures(NClosedError):
    """Operation combined elements or subsets of different structures."""


# ---------------------------------------------------------------------------
# Subset / coset analysis


class EmptySubset(NClosedError):
    """Closedness is undefined for the empty subset."""


class BudgetExceeded(NClosedError):
    """Oracle tuple enumeration would exceed its budget."""


class NotNClosed(NClosedError):
    """Operation requires an n-closed input subset."""


class AlreadyClosed(NClosedError):
    """Operation requires a subset that is not 2-closed."""


class RepInSubgroup(NClosedError):
    """Coset representative must lie outside the subgroup."""


class NonCommutingCoset(NClosedError):
    """Operation requires aH = Ha."""


class NotProperSubgroup(NClosedError):
    """Operation requires a proper subgroup."""


# ---------------------------------------------------------------------------
# Parsing


class ParseError(NClosedError):
    """Malformed input text; position is a 0-based offset into the input."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class PointOutOfRange(ParseError):
    def __init__(self, point: int, degree: int, position: int):
        self.point, self.degree = point, degree
        super().__init__(f"point {point} outside 1..{degree}", position)


class RepeatedPointInCycle(ParseError):
    def __init__(self, point: int, position: int):
        self.point = point
        super().__init__(f"point {point} repeated within a cycle", position)


class UnknownLabel(ParseError):
    def __init__(self, label: str, position: int = 0):
        self.label = label
        super().__init__(f"no element labelled {label!r}", position)


class EmptySubsetSpec(ParseError):
    def __init__(self, position: int = 0):
        super().__init__("subset specification is empty", position)


class UsageError(NClosedError):
    """Command-line arguments could not be interpreted."""
