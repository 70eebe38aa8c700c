"""Heart-rate estimation from pulse waveforms and from contact BVP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientPeaksError, NumericDegeneracyError
from .signals import BandHz

__all__ = [
    "HrEstimate",
    "estimate_hr_spectral",
    "detect_peaks",
    "hr_from_peaks",
]


@dataclass(frozen=True)
class HrEstimate:
    """A heart-rate reading in bpm with its provenance.

    ``method`` is ``"spectral"``, ``"peaks"`` (counted from BVP beats) or
    ``"synthetic"`` (a recorded reference). Spectral estimates carry the band
    actually searched and the spectral resolution in bpm; the others leave
    both as ``None``. ``low_confidence`` marks spectra whose maximum barely
    rises above the in-band background.
    """

    bpm: float
    method: str
    band: BandHz | None = None
    resolution_bpm: float | None = None
    low_confidence: bool = False

    def __post_init__(self):
        if self.method not in ("spectral", "peaks", "synthetic"):
            raise ValueError(f"unknown estimation method {self.method!r}")
        if not (np.isfinite(self.bpm) and self.bpm > 0):
            raise ValueError(f"bpm must be finite and positive, got {self.bpm}")


#: Smallest transform length of the spectral estimate.
NFFT_MIN = 2048


def estimate_hr_spectral(pulse, band: BandHz) -> HrEstimate:
    """Heart rate from the dominant in-band peak of the periodogram.

    The mean-removed signal is zero-padded to the smallest power of two that
    is at least ``max(NFFT_MIN, 8 * len)``, which bounds the bin spacing well
    below physiological differences. The band is clamped to Nyquist; if
    nothing of it survives the clamp, DataError is raised. A pulse with no
    power in the band (all zero, say) raises NumericDegeneracyError.
    """
    samples = np.asarray(pulse.samples, dtype=np.float64)
    fs = float(pulse.fs)
    if samples.size < 2 * fs:
        need = f"{2 * fs:.0f}" if 2 * fs < 1e9 else f"{2 * fs:.3g}"  # no 300-digit count at a rate near 1e300 Hz
        raise DataError(f"need at least 2 s of signal ({need} samples), got {samples.size}")
    lo = band.lo
    hi = min(band.hi, fs / 2)
    if lo >= hi:
        raise DataError(
            f"band [{band.lo}, {band.hi}] Hz is empty after clamping to Nyquist ({fs / 2} Hz)"
        )
    nfft = 1 << int(np.ceil(np.log2(max(NFFT_MIN, 8 * samples.size))))
    x = samples - samples.mean()
    power = np.abs(np.fft.rfft(x, nfft)) ** 2
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    in_band = (freqs >= lo) & (freqs <= hi)
    if not np.any(in_band):
        raise DataError("no spectral bins fall inside the requested band")
    band_power = power[in_band]
    if not band_power.any():  # e.g. an all-zero pulse: every bin would tie
        raise NumericDegeneracyError(f"the pulse has no power in the band [{lo}, {hi}] Hz")
    band_freqs = freqs[in_band]
    k = int(np.argmax(band_power))
    low_confidence = bool(band_power[k] < 2.0 * np.median(band_power))
    return HrEstimate(
        bpm=60.0 * float(band_freqs[k]),
        method="spectral",
        band=BandHz(lo, hi),
        resolution_bpm=60.0 * fs / nfft,
        low_confidence=low_confidence,
    )


def detect_peaks(s, min_dist_s: float = 0.3, min_prominence_sd: float = 0.5) -> np.ndarray:
    """Indices of local maxima subject to spacing and prominence floors.

    Peaks must be at least ``min_dist_s`` seconds apart (conflicts resolved
    greedily by descending height) and have topographic prominence of at
    least ``min_prominence_sd`` standard deviations of the signal. Both floors
    must be non-negative numbers; a negative or NaN floor raises ValueError.
    """
    min_dist_s = float(min_dist_s)
    min_prominence_sd = float(min_prominence_sd)
    if not (min_dist_s >= 0 and min_prominence_sd >= 0):
        raise ValueError("spacing and prominence floors must be non-negative numbers")
    x = np.asarray(s.samples, dtype=np.float64)
    if x.size < 3:
        raise DataError(f"peak detection needs at least 3 samples, got {x.size}")
    sd = float(x.std())
    if sd == 0.0:
        return np.empty(0, dtype=np.intp)
    distance = max(1.0, min_dist_s * float(s.fs))
    prominence = min_prominence_sd * sd
    return _find_peaks(x, distance, prominence or None)


def _find_peaks(x: np.ndarray, distance: float, prominence: float | None) -> np.ndarray:
    """``scipy.signal.find_peaks(x, distance=distance, prominence=prominence)[0]`` for finite ``x``.

    scipy 1.17's rules in its order: the midpoint ``(start + end) // 2`` of
    each strict local maximum (a plateau counts once); then, highest first in
    ``np.argsort`` order (so ties break as in scipy), each kept peak drops the
    others closer than ``ceil(distance)``; then the prominence floor.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))  # runs of equal samples
    ends = np.append(starts[1:], x.size) - 1
    run = x[starts]
    top = np.flatnonzero((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    keep = [True] * peaks.size
    span = math.ceil(min(distance, x.size))  # any longer span drops the same peaks
    if span > 1:
        lo = np.searchsorted(peaks, peaks - span, side="right").tolist()
        hi = np.searchsorted(peaks, peaks + span).tolist()
        for j in np.argsort(x[peaks])[::-1].tolist():
            if keep[j]:
                keep[lo[j]:j] = [False] * (j - lo[j])
                keep[j + 1:hi[j]] = [False] * (hi[j] - j - 1)
    keep = np.array(keep, dtype=bool)
    if prominence is not None:
        keep &= prominence <= _prominences(x, peaks)
    return peaks[keep]


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """``scipy.signal.peak_prominences(x, peaks)[0]`` for all the strict local maxima ``peaks`` of ``x``.

    A peak's prominence is its height above the higher of the two minima that
    walks away from it reach before ``x`` rises strictly above it. Between
    neighbouring maxima ``x`` falls to one valley and rises again, so a walk
    covers exactly the valleys up to the nearest higher maximum.
    """
    valleys = np.minimum.reduceat(x, np.append(0, peaks)).tolist()  # [before peak 0, ..., after the last]
    heights = x[peaks].tolist()
    left = _walk_minima(heights, valleys[:-1])
    right = _walk_minima(heights[::-1], valleys[:0:-1])[::-1]
    return x[peaks] - np.maximum(left, right)


def _walk_minima(heights: list, valleys: list) -> list:
    """Per maximum, the lowest valley back to the nearest strictly higher maximum (or the start)."""
    out = []
    stack = []  # (height, lowest valley back to the next entry), heights strictly falling
    for h, v in zip(heights, valleys):
        while stack and stack[-1][0] <= h:
            v = min(v, stack.pop()[1])
        stack.append((h, v))
        out.append(v)
    return out


def hr_from_peaks(indices, fs: float) -> HrEstimate:
    """Heart rate from the mean inter-peak interval of detected beats."""
    indices = np.asarray(indices)
    fs = float(fs)
    if fs <= 0 or not np.isfinite(fs):
        raise ValueError(f"sampling rate must be finite and positive, got {fs}")
    if indices.ndim != 1:
        raise ValueError("peak indices must form a 1-D sequence")
    if indices.size < 2:
        raise InsufficientPeaksError(
            f"need at least 2 peaks to form an interval, got {indices.size}"
        )
    if np.any(np.diff(indices) <= 0):
        raise ValueError("peak indices must be strictly increasing")
    mean_interval_s = float(indices[-1] - indices[0]) / (indices.size - 1) / fs
    return HrEstimate(bpm=60.0 / mean_interval_s, method="peaks")
