"""Chrominance-projection pulse extraction from an RGB trace.

Works on short overlapping windows, all in one batch: channels are
normalized by their window mean, projected onto two fixed chrominance axes
and band-limited. The alpha-tuned overlap-add shared with SSR combines the
two with a ratio of standard deviations that cancels specular distortions,
and Hann overlap-adds the windows back into one waveform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericDegeneracyError
from .roi import RgbTrace, check_params
from .signals import BandHz, PulseSignal, alpha_overlap_add, bandpass_rows, window_length, window_starts

__all__ = ["ChromParams", "chrom_pulse"]


@dataclass(frozen=True)
class ChromParams:
    """Tunables of the chrominance extractor."""

    window_s: float = 1.6
    band_lo: float = 0.67
    band_hi: float = 4.0
    strategy: str = "skin"
    skin_tau: float = 0.3
    numtaps: int = 127

    def __post_init__(self):
        check_params(self)
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.numtaps < 3:
            raise ValueError(f"numtaps must be at least 3, got {self.numtaps}")
        self.band  # BandHz checks the edges

    @cached_property
    def band(self) -> BandHz:
        return BandHz(self.band_lo, self.band_hi)


def chrom_pulse(trace: RgbTrace, params: ChromParams = ChromParams()) -> PulseSignal:
    """Extract the pulse waveform from an RGB trace.

    Raises :class:`NumericDegeneracyError` when a window has a zero channel
    mean (the normalization would divide by zero). Output has zero mean, one
    sample per frame, and is invariant to uniform scaling of the trace.
    """
    n = len(trace)
    fs = trace.fs
    length = window_length(params.window_s * fs, n, minimum=8)
    # The FIR must fit the analysis window; keep taps odd for an integer delay.
    numtaps = (min(params.numtaps, length - 1) - 1) // 2 * 2 + 1  # the largest odd count that fits
    params.band.validate_for(fs)
    starts = window_starts(n, length)
    windows = np.lib.stride_tricks.sliding_window_view(trace.means, length, axis=0)[starts]  # (w, 3, length)
    mu = windows.mean(axis=2)
    bad = np.flatnonzero((mu == 0).any(axis=1))
    if bad.size:
        start = starts[bad[0]]
        raise NumericDegeneracyError(
            f"zero channel mean in window {bad[0]} (frames {start}..{start + length - 1})"
        )
    rn, gn, bn = (windows / mu[:, :, None]).transpose(1, 0, 2)
    chroma = np.concatenate((3.0 * rn - 2.0 * gn, 1.5 * rn + gn - 1.5 * bn))
    x_f, y_f = np.split(bandpass_rows(chroma, fs, params.band, numtaps), 2)
    return PulseSignal(alpha_overlap_add(x_f, y_f, starts, n, fs), fs, trace.fallback_fraction)
