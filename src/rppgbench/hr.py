"""Heart-rate estimation from pulse waveforms and from contact BVP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .errors import DataError, InsufficientPeaksError
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
    nothing of it survives the clamp, DataError is raised.
    """
    samples = np.asarray(pulse.samples, dtype=np.float64)
    fs = float(pulse.fs)
    if samples.size < 2 * fs:
        raise DataError(
            f"need at least 2 s of signal ({2 * fs:.0f} samples), got {samples.size}"
        )
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
    least ``min_prominence_sd`` standard deviations of the signal.
    """
    min_dist_s = float(min_dist_s)
    min_prominence_sd = float(min_prominence_sd)
    if min_dist_s < 0 or min_prominence_sd < 0:
        raise ValueError("spacing and prominence floors must be non-negative")
    x = np.asarray(s.samples, dtype=np.float64)
    if x.size < 3:
        raise DataError(f"peak detection needs at least 3 samples, got {x.size}")
    sd = float(x.std())
    if sd == 0.0:
        return np.empty(0, dtype=np.intp)
    distance = max(1.0, min_dist_s * float(s.fs))
    prominence = min_prominence_sd * sd
    peaks, _ = find_peaks(x, distance=distance, prominence=prominence or None)
    return peaks.astype(np.intp)


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
