"""Core 1-D signal operations shared by the pulse-extraction pipelines.

All functions are pure: inputs are never modified and outputs are freshly
allocated. Value types freeze their sample arrays after validation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.signal import firwin

from .errors import DataError, UndefinedCorrelationError

__all__ = [
    "Signal1D",
    "BandHz",
    "PulseSignal",
    "moving_average",
    "bandpass",
    "detrend_smoothness_priors",
    "nlms_rectify",
    "pearson",
    "rmse",
    "hann_overlap_add",
]

#: Denominator regularizer of the normalized LMS update.
NLMS_EPS = 1e-8


def _frozen_copy(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Signal1D:
    """A finite, uniformly sampled real-valued signal."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        arr = _frozen_copy(self.samples)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        fs = float(self.fs)
        if not np.isfinite(fs) or fs <= 0:
            raise ValueError(f"sampling rate must be finite and positive, got {self.fs!r}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "fs", fs)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.fs


@dataclass(frozen=True)
class BandHz:
    """A pass band in Hz with 0 < lo < hi; Nyquist is checked at point of use."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("band edges must be finite")
        if not 0 < lo < hi:
            raise ValueError(f"band must satisfy 0 < lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def validate_for(self, fs: float) -> None:
        if self.hi >= fs / 2:
            raise DataError(
                f"band [{self.lo}, {self.hi}] Hz does not fit below Nyquist at fs={fs}"
            )


@dataclass(frozen=True)
class PulseSignal(Signal1D):
    """A pulse waveform at the video frame rate; zero mean by construction.

    ``fallback_fraction`` is the fraction of frames whose region of interest
    fell back to the full box; ``discarded_fraction`` the fraction of temporal
    segments dropped by motion elimination (zero for methods without it).
    """

    method: str
    fallback_fraction: float = 0.0
    discarded_fraction: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        arr = self.samples
        rms = float(np.sqrt(np.mean(arr * arr)))
        if rms > 0 and abs(float(arr.mean())) > 1e-9 * rms:
            raise ValueError("pulse signal must have zero mean (relative to its RMS)")
        for name in ("fallback_fraction", "discarded_fraction"):
            frac = float(getattr(self, name))
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {frac}")
            object.__setattr__(self, name, frac)


def moving_average(s: Signal1D, window_len: int) -> Signal1D:
    """Centered moving average with the window clipped to the signal edges.

    ``window_len`` must be odd, positive and no longer than the signal. Near
    the edges the window keeps its center and simply loses the samples that
    would fall outside, so the effective length shrinks there.
    """
    window_len = int(window_len)
    if window_len <= 0 or window_len % 2 == 0:
        raise ValueError(f"window_len must be a positive odd integer, got {window_len}")
    n = len(s)
    if window_len > n:
        raise DataError(f"window_len {window_len} exceeds signal length {n}")
    half = window_len // 2
    csum = np.concatenate(([0.0], np.cumsum(s.samples)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    out = (csum[hi] - csum[lo]) / (hi - lo)
    return Signal1D(out, s.fs)


@functools.lru_cache(maxsize=64)
def _bandpass_taps(numtaps: int, lo: float, hi: float, fs: float) -> np.ndarray:
    """Hamming-windowed band-pass taps, designed once per (numtaps, band, fs)."""
    return _frozen_copy(firwin(numtaps, [lo, hi], pass_zero=False, window="hamming", fs=fs))


def bandpass(s: Signal1D, band: BandHz, numtaps: int = 127) -> Signal1D:
    """Zero-phase FIR band-pass filter (Hamming-windowed sinc).

    The linear-phase filter is applied once and its integer group delay
    removed, so pass-band components come out with no phase shift. The signal
    is extended by reflection before filtering, which keeps the output the
    same length as the input.
    """
    band.validate_for(s.fs)
    numtaps = int(numtaps)
    if numtaps < 3 or numtaps % 2 == 0:
        raise ValueError(f"numtaps must be an odd integer >= 3, got {numtaps}")
    taps = _bandpass_taps(numtaps, band.lo, band.hi, s.fs)
    delay = (numtaps - 1) // 2
    mode = "reflect" if len(s) > 1 else "edge"
    padded = np.pad(s.samples, delay, mode=mode)
    out = np.convolve(padded, taps, mode="valid")
    return Signal1D(out, s.fs)


def detrend_smoothness_priors(s: Signal1D, lam: float) -> Signal1D:
    """Remove the low-frequency trend with a smoothness-priors estimator.

    The trend is the solution of ``(I + lam^2 D2' D2) z = s`` where ``D2`` is
    the second-difference operator; the detrended signal is ``s - z``. The
    system is pentadiagonal and is solved with a banded Cholesky solver, so
    cost and memory stay linear in the signal length.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    n = len(s)
    if n < 3:
        raise DataError(f"detrending needs at least 3 samples, got {n}")
    if lam == 0.0:
        return Signal1D(np.zeros(n), s.fs)
    # Upper bands of I + lam^2 D2'D2. Each of the n - 2 rows [1, -2, 1] of D2
    # adds its outer product, whose bands 2, 1 and 0 hold [1], [-2, -2] and
    # [1, 4, 1]; summing the shifted copies is a convolution with ones.
    lam2 = lam * lam
    rows = np.ones(n - 2)
    ab = np.zeros((3, n))
    ab[0, 2:] = lam2
    ab[1, 1:] = lam2 * np.convolve(rows, [-2.0, -2.0])
    ab[2, :] = 1.0 + lam2 * np.convolve(rows, [1.0, 4.0, 1.0])
    trend = solveh_banded(ab, s.samples, lower=False)
    return Signal1D(s.samples - trend, s.fs)


def nlms_rectify(target: Signal1D, reference: Signal1D, mu: float = 1.0, order: int = 1) -> Signal1D:
    """Subtract the reference-correlated component via a normalized LMS filter.

    Parameters
    ----------
    target : signal to clean (e.g. the skin green trace).
    reference : interference recording of equal length and rate.
    mu : adaptation step size in (0, 2].
    order : number of filter taps.

    Returns the running prediction error, which converges onto the part of the
    target that the reference cannot explain. An all-zero reference leaves the
    target untouched.
    """
    mu = float(mu)
    order = int(order)
    if len(target) != len(reference):
        raise ValueError("target and reference must have the same length")
    if target.fs != reference.fs:
        raise ValueError("target and reference must share a sampling rate")
    if not 0 < mu <= 2:
        raise ValueError(f"mu must lie in (0, 2], got {mu}")
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    t = target.samples
    r = reference.samples
    n = t.size
    w = np.zeros(order)
    u = np.zeros(order)
    out = np.empty(n)
    for i in range(n):
        if order > 1:
            u[1:] = u[:-1]
        u[0] = r[i]
        e = t[i] - w @ u
        out[i] = e
        w += (mu * e / (NLMS_EPS + u @ u)) * u
    return Signal1D(out, target.fs)


def pearson(a, b) -> float:
    """Pearson correlation of two equal-length vectors.

    Raises :class:`UndefinedCorrelationError` when either input is constant.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if a.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise UndefinedCorrelationError()
    am = a - a.mean()
    bm = b - b.mean()
    return float((am @ bm) / np.sqrt((am @ am) * (bm @ bm)))


def rmse(a, b) -> float:
    """Root-mean-square error between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if a.size < 1:
        raise ValueError("rmse needs at least 1 sample")
    d = a - b
    return float(np.sqrt(np.mean(d * d)))


def _hann_periodic(length: int) -> np.ndarray:
    # Periodic (DFT-even) Hann window: adjacent windows at 50% hop sum to 1.
    k = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / length)


def hann_overlap_add(blocks, fs: float, offsets=None) -> Signal1D:
    """Hann-weight equal-length blocks and sum them at 50% overlap.

    With the default offsets block ``i`` starts at ``i * len/2``; at that hop
    the periodic Hann weights of neighbouring blocks sum to exactly one on
    every interior sample. Explicit integer ``offsets`` may be passed instead
    (used for a trailing block anchored at the end of a signal).
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    length = blocks[0].size
    if length < 2 or length % 2 != 0:
        raise ValueError(f"block length must be even and >= 2, got {length}")
    for b in blocks:
        if b.ndim != 1 or b.size != length:
            raise ValueError("all blocks must be 1-D and equally long")
    hop = length // 2
    if offsets is None:
        offsets = [i * hop for i in range(len(blocks))]
    else:
        offsets = [int(o) for o in offsets]
        if len(offsets) != len(blocks):
            raise ValueError("offsets must match blocks one to one")
        if any(o < 0 for o in offsets):
            raise ValueError("offsets must be non-negative")
    window = _hann_periodic(length)
    total = max(offsets) + length
    out = np.zeros(total)
    for off, b in zip(offsets, blocks):
        out[off:off + length] += window * b
    return Signal1D(out, fs)
