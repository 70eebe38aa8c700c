"""The package's error taxonomy: which failure is whose.

A :class:`DataError` (a ``ValueError``) is input that cannot be processed: a
file that breaks its format (:class:`FormatError`, or a ``bvp_meta.json``
whose ``signal_type`` is not ``"bvp"``), or content the run cannot use (too
short for a window, a spectrum or the NLMS taps, a ROI off the frame or unfit
for its strategy, a band above Nyquist, fewer than two successful sequences,
subjects in both splits, a search stage with no successful candidate). The CLI
exits 2. A :class:`NumericDegeneracyError` is well-formed input with
degenerate numerics (a zero channel mean, a detrending system too
ill-conditioned to solve, a pulse with no in-band power, a band edge that
underflows); the CLI exits 3. Any other ``ValueError`` is a bad argument and
exits 1. Per-sequence and per-candidate isolation records only
:data:`EXPECTED_ERRORS`; anything else is a bug and propagates.
"""

from __future__ import annotations

__all__ = [
    "DataError",
    "FormatError",
    "NumericDegeneracyError",
    "UndefinedCorrelationError",
    "InsufficientPeaksError",
    "DegenerateSubspaceError",
    "EXPECTED_ERRORS",
]


class DataError(ValueError):
    """The input cannot be processed: a property of the data, not of an argument."""


class FormatError(DataError):
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

    def __init__(self, message: str = "correlation of a constant vector is undefined"):
        super().__init__(message)


class InsufficientPeaksError(NumericDegeneracyError):
    """Fewer than two peaks were found, so no inter-beat interval exists."""


class DegenerateSubspaceError(NumericDegeneracyError):
    """Anchor-frame eigenvalues are too small to span a rotation subspace."""


#: Failures a run expects from its inputs; isolation catches these only.
EXPECTED_ERRORS = (DataError, NumericDegeneracyError, OSError)
