"""Exception hierarchy shared across the package."""


class ArchError(Exception):
    """Base class for all archcheck errors."""


class StructuralError(ArchError, ValueError):
    """A value violates a structural invariant of its type."""


class UnknownComponentError(ArchError, LookupError):
    """A component identifier does not occur where it is required."""


class SignatureError(ArchError, ValueError):
    """A symbol is missing from, or incompatible with, a signature."""


class SortError(ArchError, ValueError):
    """A term or assertion is not well-sorted."""


class AssignmentError(ArchError, LookupError):
    """A free variable has no value in the current assignment."""


class CapacityError(ArchError, RuntimeError):
    """An enumeration would exceed the configured bound."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class InterpretationError(ArchError, ValueError):
    """An interface interpretation is malformed or missing."""


class UsageError(ArchError, ValueError):
    """Invalid invocation of a command-level operation."""
