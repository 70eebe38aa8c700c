"""Chrominance-projection pulse extraction from an RGB trace.

Works on short overlapping windows: channels are normalized by their window
mean, projected onto two fixed chrominance axes, band-limited, and combined
with a ratio of standard deviations that cancels specular distortions. The
windows are Hann-weighted and overlap-added back into one waveform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NumericDegeneracyError
from .roi import RgbTrace, check_selection
from .signals import BandHz, PulseSignal, Signal1D, bandpass, hann_overlap_add, window_length, window_starts

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
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.numtaps < 3:
            raise ValueError(f"numtaps must be at least 3, got {self.numtaps}")
        self.band  # BandHz checks the edges
        check_selection(self.strategy, self.skin_tau)

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
    numtaps = min(params.numtaps, length - 1)
    if numtaps % 2 == 0:
        numtaps -= 1
    starts = window_starts(n, length)
    blocks = []
    for w_idx, start in enumerate(starts):
        window = trace.means[start:start + length]
        mu = window.mean(axis=0)
        if (mu == 0).any():
            raise NumericDegeneracyError(
                f"zero channel mean in window {w_idx} (frames {start}..{start + length - 1})"
            )
        rn = window[:, 0] / mu[0]
        gn = window[:, 1] / mu[1]
        bn = window[:, 2] / mu[2]
        x_chrom = 3.0 * rn - 2.0 * gn
        y_chrom = 1.5 * rn + gn - 1.5 * bn
        x_f = bandpass(Signal1D(x_chrom, fs), params.band, numtaps=numtaps).samples
        y_f = bandpass(Signal1D(y_chrom, fs), params.band, numtaps=numtaps).samples
        sy = y_f.std()
        combined = x_f - (x_f.std() / sy) * y_f if sy > 0 else x_f
        blocks.append(combined - combined.mean())
    assembled = hann_overlap_add(blocks, fs, offsets=starts).samples
    assembled = assembled - assembled.mean()
    return PulseSignal(
        samples=assembled,
        fs=fs,
        method="chrom",
        fallback_fraction=trace.fallback_fraction,
    )
