"""Pulse extraction by tracking the rotation of the skin-pixel subspace.

Each frame's skin pixels define a 3x3 correlation matrix whose leading
eigenvector follows the momentary skin color. Projecting it onto the two
minor eigenvectors of an anchor frame measures the rotation accumulated over
a short window; the scaled projections are recombined into a pulse sample.
As in CHROM, all windows are handled in one batch and alpha-tuned overlap-added.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSubspaceError, NumericDegeneracyError
from .roi import RgbTrace, check_params
from .signals import PulseSignal, alpha_overlap_add, window_length, window_starts

__all__ = ["SsrParams", "frame_eigen", "correlation_eigens", "canonical_eigenvector_signs",
           "trace_eigens", "ssr_pulse"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SsrParams:
    """Tunables of the subspace-rotation extractor."""

    window_l: int | None = None  # frames; None means one second, rounded even
    strategy: str = "skin"
    skin_tau: float = 0.3
    degeneracy_eps: float = 1e-12

    def __post_init__(self):
        check_params(self)
        if self.window_l is not None and (not isinstance(self.window_l, int) or self.window_l < 2 or self.window_l % 2):
            raise ValueError(f"window_l must be an integer, even (50% overlap) and >= 2, got {self.window_l!r}")
        if self.degeneracy_eps <= 0:
            raise ValueError(f"degeneracy_eps must be positive, got {self.degeneracy_eps}")


def canonical_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each first nonzero component is positive.

    Works on one (3, k) matrix or a stack (..., 3, k). This removes the
    solver's sign ambiguity and makes the decomposition deterministic for
    identical input.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    lead = np.argmax(vectors != 0, axis=-2)[..., None, :]
    flip = np.take_along_axis(vectors, lead, axis=-2) < 0
    return np.where(flip, -vectors, vectors)


def correlation_eigens(correlations) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a stack of (n, 3, 3) pixel correlation matrices at once.

    Returns read-only eigenvalues (n, 3) sorted descending and clamped at 0,
    and the matching eigenvectors (n, 3, 3) as columns with canonical signs;
    frame ``i`` equals :func:`frame_eigen` of the pixels behind
    ``correlations[i]``.
    """
    lam, vec = np.linalg.eigh(correlations)
    lam = lam[:, ::-1]
    vec = vec[:, :, ::-1]
    if np.any(lam[:, 0] <= 0):
        raise NumericDegeneracyError("pixel correlation matrix has no positive eigenvalue")
    lam = np.maximum(lam, 0.0)  # clamp eigh round-off on a PSD matrix
    vec = canonical_eigenvector_signs(vec)
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def frame_eigen(pixels) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose ``C = V'V / N`` for one frame's skin pixels (N, 3): row 0 of :func:`correlation_eigens`."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != 3:
        raise ValueError("pixels must be shaped (N, 3)")
    if pixels.shape[0] < 3:
        raise ValueError(f"need at least 3 pixels, got {pixels.shape[0]}")
    lam, vec = correlation_eigens((pixels.T @ pixels / pixels.shape[0])[None])
    return lam[0], vec[0]


def trace_eigens(trace: RgbTrace) -> tuple[np.ndarray, np.ndarray]:
    """:func:`correlation_eigens` of a trace's correlations.

    ``trace.correlations`` holds one ``C = V'V / N`` per frame over that
    frame's N >= 3 selected pixels ``V``; fewer pixels in any frame raise
    :class:`DataError`, and a trace without correlations ValueError.
    """
    if trace.correlations is None:
        raise ValueError("the trace holds no correlations; SSR reads a ('corr', ...) pixel feature")
    few = np.flatnonzero(trace.pixel_counts < 3)
    if few.size:
        raise DataError(f"need at least 3 pixels, got {trace.pixel_counts[few[0]]}")
    return correlation_eigens(trace.correlations)


def ssr_pulse(trace: RgbTrace, params: SsrParams = SsrParams(), eigens=None) -> PulseSignal:
    """Extract the pulse from the per-frame pixel correlations of a trace.

    ``eigens`` defaults to ``trace_eigens(trace)``. The pulse carries the
    trace's frame rate and fallback fraction.

    Windows whose anchor frame has a second or third eigenvalue at or below
    ``degeneracy_eps`` times the first are skipped and logged; if every window
    is degenerate, :class:`DegenerateSubspaceError` is raised.
    """
    lams, vectors = trace_eigens(trace) if eigens is None else eigens
    n = len(lams)
    if n < 2:
        raise DataError(f"need at least 2 frames, got {n}")
    length = window_length(trace.fs if params.window_l is None else params.window_l, n)
    starts = np.asarray(window_starts(n, length))
    anchors = lams[starts]
    degenerate = np.minimum(anchors[:, 1], anchors[:, 2]) <= params.degeneracy_eps * anchors[:, 0]
    if degenerate.all():
        raise DegenerateSubspaceError(f"all {len(starts)} windows have a degenerate anchor subspace")
    if degenerate.any():
        log.warning("skipped %d/%d degenerate windows", np.count_nonzero(degenerate), len(starts))
    starts, anchors = starts[~degenerate], anchors[~degenerate]
    frames = starts[:, None] + np.arange(length)  # (w, length)
    u1 = vectors[frames, :, 0]  # (w, length, 3)
    u2, u3 = vectors[starts, :, 1], vectors[starts, :, 2]  # the anchors' minor axes, (w, 3)
    lam1 = lams[frames, 0]
    # One gemv per window; s1 and s2 are the scaled rotations onto u2 and u3.
    s1 = np.sqrt(lam1 / anchors[:, 1:2]) * np.matmul(u1, u2[:, :, None])[:, :, 0]
    s2 = np.sqrt(lam1 / anchors[:, 2:3]) * np.matmul(u1, u3[:, :, None])[:, :, 0]
    sr0 = s1 * u2[:, 0:1] + s2 * u3[:, 0:1]  # the rotation's R and G channels, (w, length)
    sr1 = s1 * u2[:, 1:2] + s2 * u3[:, 1:2]
    return PulseSignal(alpha_overlap_add(sr0, sr1, starts, n, trace.fs), trace.fs, trace.fallback_fraction)
