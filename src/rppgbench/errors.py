"""Exception types shared across the package.

Plain invalid arguments raise :class:`ValueError`; the classes below cover
failure modes that callers (in particular the CLI and the benchmark harness)
need to tell apart.
"""

from __future__ import annotations

__all__ = [
    "FormatError",
    "NumericDegeneracyError",
    "UndefinedCorrelationError",
    "InsufficientPeaksError",
    "DegenerateSubspaceError",
    "AggregateUndefinedError",
    "SplitOverlapError",
    "SearchFailedError",
]


class FormatError(Exception):
    """An input file violates its declared on-disk format.

    ``offset`` is the byte offset at which the problem was detected for binary
    containers, or ``None`` for line-oriented formats (the message then names
    the offending row).
    """

    def __init__(self, message: str, *, path: str | None = None, offset: int | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.offset = offset


class NumericDegeneracyError(Exception):
    """A computation cannot proceed because its numerics are degenerate."""


class UndefinedCorrelationError(NumericDegeneracyError):
    """Pearson correlation was requested for a constant vector."""


class InsufficientPeaksError(NumericDegeneracyError):
    """Fewer than two peaks were found, so no inter-beat interval exists."""


class DegenerateSubspaceError(NumericDegeneracyError):
    """Anchor-frame eigenvalues are too small to span a rotation subspace."""


class AggregateUndefinedError(Exception):
    """Fewer than two sequences succeeded, so RMSE/correlation are undefined."""


class SplitOverlapError(Exception):
    """A subject appears in both splits of the same protocol."""


class SearchFailedError(Exception):
    """Every candidate in one search stage failed to evaluate."""

    def __init__(self, stage: str, message: str | None = None):
        super().__init__(message or f"all candidates failed in search stage {stage!r}")
        self.stage = stage
