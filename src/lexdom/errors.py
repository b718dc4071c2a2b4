"""Exception hierarchy shared by all lexdom modules."""


class LexdomError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(LexdomError):
    """Malformed graph6 / edge-list input.

    Carries the byte offset (for inline data) or line number (for corpus
    and edge-list files) where parsing failed.
    """

    def __init__(self, message, *, offset=None, line=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"byte offset {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class DomainError(LexdomError):
    """Input violates a solver's domain hypothesis (e.g. isolated vertex
    passed to a total-domination kind)."""


class CapExceededError(LexdomError):
    """Instance larger than the configured search cap."""


class HypothesisError(LexdomError):
    """No theorem applies to the given pair of factor graphs, or the
    hypotheses of an explicitly requested theorem do not hold."""


class InconsistencyError(LexdomError):
    """Two exact-case theorems fired with different values.

    This should be impossible; it indicates a bug in the engine or a
    misreading of a statement, and is deliberately never swallowed.
    """
