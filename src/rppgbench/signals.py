"""Core 1-D signal operations shared by the pulse-extraction pipelines.

All functions are pure: inputs are never modified and outputs are freshly
allocated. Value types freeze their sample arrays after validation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import DataError, NumericDegeneracyError, UndefinedCorrelationError

__all__ = [
    "Signal1D",
    "BandHz",
    "PulseSignal",
    "moving_average",
    "bandpass",
    "bandpass_rows",
    "detrend_smoothness_priors",
    "nlms_rectify",
    "pearson",
    "rmse",
    "window_length",
    "window_starts",
    "hann_overlap_add",
    "alpha_overlap_add",
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
        if self.lo / (fs / 2) == 0.0:  # the filter design works in fractions of Nyquist
            raise NumericDegeneracyError(f"band edge {self.lo} Hz underflows as a fraction of Nyquist at fs={fs}")


@dataclass(frozen=True)
class PulseSignal(Signal1D):
    """A pulse waveform at the video frame rate; zero mean by construction.

    ``fallback_fraction`` is the fraction of frames whose region of interest
    fell back to the full box; ``discarded_fraction`` the fraction of temporal
    segments dropped by motion elimination (zero for methods without it).
    """

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
    """Hamming-windowed band-pass taps, designed once per (numtaps, band, fs).

    Bit for bit ``scipy.signal.firwin(numtaps, [lo, hi], pass_zero=False,
    window="hamming", fs=fs)``: scipy 1.17's operations in its order, with its
    general-cosine Hamming window (``np.hamming`` rounds differently).
    """
    left, right = np.array([lo, hi]) / (0.5 * fs)
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    h = right * np.sinc(right * m) - left * np.sinc(left * m)
    h *= 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    return _frozen_copy(h / np.sum(h * np.cos(np.pi * m * (0.5 * (left + right)))))


def bandpass_rows(rows: np.ndarray, fs: float, band: BandHz, numtaps: int = 127) -> np.ndarray:
    """Zero-phase FIR band-pass filter (Hamming-windowed sinc) of each row of a 2-D array.

    The linear-phase filter is applied once and its integer group delay
    removed, so pass-band components come out with no phase shift. Each row
    is extended by reflection before filtering, which keeps it the same
    length. Rows are convolved one by one, so a row's output does not depend
    on the rows filtered with it.
    """
    band.validate_for(fs)
    numtaps = int(numtaps)
    if numtaps < 3 or numtaps % 2 == 0:
        raise ValueError(f"numtaps must be an odd integer >= 3, got {numtaps}")
    taps = _bandpass_taps(numtaps, band.lo, band.hi, fs)
    delay = (numtaps - 1) // 2
    mode = "reflect" if rows.shape[1] > 1 else "edge"
    padded = np.pad(rows, ((0, 0), (delay, delay)), mode=mode)
    return np.array([np.convolve(row, taps, mode="valid") for row in padded])


def bandpass(s: Signal1D, band: BandHz, numtaps: int = 127) -> Signal1D:
    """:func:`bandpass_rows` of one signal."""
    return Signal1D(bandpass_rows(s.samples[None], s.fs, band, numtaps)[0], s.fs)


def detrend_smoothness_priors(s: Signal1D, lam: float) -> Signal1D:
    """Remove the low-frequency trend with a smoothness-priors estimator.

    The trend is the solution of ``(I + lam^2 D2' D2) z = s`` where ``D2`` is
    the second-difference operator; the detrended signal is ``s - z``. The
    system is pentadiagonal and is solved with a banded Cholesky solver, so
    cost and memory stay linear in the signal length. A ``lam`` so large that
    no digit of the solution is certain (``16 lam^2 eps >= 1``, about
    ``lam >= 1.7e7``) raises NumericDegeneracyError, as does a system that
    cannot be factored.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    n = len(s)
    if n < 3:
        raise DataError(f"detrending needs at least 3 samples, got {n}")
    if lam == 0.0:
        return Signal1D(np.zeros(n), s.fs)
    if 16.0 * lam * lam * np.finfo(float).eps >= 1.0:  # the condition number is below 1 + 16 lam^2
        raise NumericDegeneracyError(
            f"detrending {n} samples with lambda={lam}: the system is too ill-conditioned for float64"
        )
    # Upper bands of I + lam^2 D2'D2. Each of the n - 2 rows [1, -2, 1] of D2
    # adds its outer product, whose bands 2, 1 and 0 hold [1], [-2, -2] and
    # [1, 4, 1]; summing the shifted copies is a convolution with ones.
    lam2 = lam * lam
    rows = np.ones(n - 2)
    ab = np.zeros((3, n))
    ab[0, 2:] = lam2
    ab[1, 1:] = lam2 * np.convolve(rows, [-2.0, -2.0])
    ab[2, :] = 1.0 + lam2 * np.convolve(rows, [1.0, 4.0, 1.0])
    try:
        trend = solveh_banded(ab, s.samples, lower=False)
    except np.linalg.LinAlgError as exc:  # not positive definite after rounding
        raise NumericDegeneracyError(f"detrending {n} samples with lambda={lam}: {exc}") from None
    return Signal1D(s.samples - trend, s.fs)


def nlms_rectify(target: Signal1D, reference: Signal1D, mu: float = 1.0, order: int = 1) -> Signal1D:
    """Subtract the reference-correlated component via a normalized LMS filter.

    Parameters
    ----------
    target : signal to clean (e.g. the skin green trace).
    reference : interference recording of equal length and rate.
    mu : adaptation step size in (0, 2].
    order : number of filter taps, at most the signal length (else DataError).

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
    if order > len(target):
        raise DataError(f"NLMS order {order} exceeds the signal length {len(target)}")
    t = target.samples
    r = reference.samples
    if order == 1:
        # The same arithmetic on Python floats, bit for bit: a one-tap dot
        # product is a single multiply, so no summation order can differ.
        out = []
        w = 0.0
        for ti, ri in zip(t.tolist(), r.tolist()):
            e = ti - w * ri
            out.append(e)
            w += (mu * e / (NLMS_EPS + ri * ri)) * ri
        return Signal1D(np.array(out), target.fs)
    n = t.size
    w = np.zeros(order)
    u = np.zeros(order)
    out = np.empty(n)
    for i in range(n):
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


def window_length(frames: float, n: int, minimum: int = 2) -> int:
    """Window length for ``frames`` samples: rounded, odd counts up to even (50 % hop), at least 2.

    Raises :class:`DataError` when the length is under ``minimum`` or over the ``n``-sample trace.
    """
    if frames == np.inf:  # a finite window times the frame rate can overflow
        raise DataError(f"window of {frames} frames exceeds the {n}-frame trace")
    length = int(round(frames))
    length = max(length + length % 2, 2)
    if length < minimum:
        raise DataError(f"window of {length} frames is shorter than {minimum} frames")
    if length > n:
        raise DataError(f"window of {length} frames exceeds the {n}-frame trace")
    return length


def window_starts(n: int, length: int) -> list[int]:
    """Start indices at 50% hop plus, if needed, a final window anchored at the end."""
    hop = length // 2
    starts = list(range(0, n - length + 1, hop))
    if starts[-1] + length < n:
        starts.append(n - length)
    return starts


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
    blocks = np.asarray(blocks, dtype=np.float64)  # ragged blocks raise ValueError
    if blocks.ndim != 2 or len(blocks) == 0:
        raise ValueError("need at least one block, all 1-D and equally long")
    length = blocks.shape[1]
    if length < 2 or length % 2 != 0:
        raise ValueError(f"block length must be even and >= 2, got {length}")
    offsets = [i * (length // 2) for i in range(len(blocks))] if offsets is None else [int(o) for o in offsets]
    if len(offsets) != len(blocks):
        raise ValueError("offsets must match blocks one to one")
    if min(offsets) < 0:
        raise ValueError("offsets must be non-negative")
    window = _hann_periodic(length)
    out = np.zeros(max(offsets) + length)
    for off, b in zip(offsets, blocks):
        out[off:off + length] += window * b
    return Signal1D(out, fs)


def alpha_overlap_add(a: np.ndarray, b: np.ndarray, starts, n: int, fs: float) -> np.ndarray:
    """Hann overlap-add into ``n`` samples each window's ``a - (std a / std b) b``, or ``a`` where ``std b`` is 0.

    Rows of ``a`` and ``b`` (w, length) are the windows starting at ``starts``;
    each window and the result are made zero-mean.
    """
    sb = b.std(axis=1)
    ratio = np.divide(a.std(axis=1), sb, out=np.zeros_like(sb), where=sb > 0)
    tuned = a - ratio[:, None] * b
    assembled = hann_overlap_add(tuned - tuned.mean(axis=1, keepdims=True), fs, offsets=starts).samples
    out = np.zeros(n)
    out[:assembled.size] = assembled
    return out - out.mean()
