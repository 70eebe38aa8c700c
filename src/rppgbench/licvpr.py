"""Green-channel pulse extraction with illumination and motion cleanup.

Pipeline order: adaptive illumination rectification against a background
trace, elimination of high-variance temporal segments, smoothness-priors
detrending, moving average, band-pass. The output is shorter than the input
when segments were discarded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, _memo
from .io import FrameSequence, RoiTrack
from .roi import RgbTrace, check_params, pixel_features
from .signals import (
    BandHz,
    PulseSignal,
    Signal1D,
    bandpass,
    detrend_smoothness_priors,
    moving_average,
    nlms_rectify,
)

__all__ = ["LiParams", "background_trace", "eliminate_motion_segments", "licvpr_pulse"]

log = logging.getLogger(__name__)

#: Seconds of signal averaged on each side of a gap when levels are re-matched.
REJOIN_MATCH_S = 0.25


@dataclass(frozen=True)
class LiParams:
    """Tunables of the green-channel extractor."""

    mu: float = 1.0
    order: int = 1
    rectify: bool = True
    segment_s: float = 1.0
    discard_percentile: float = 95.0
    detrend_lambda: float = 300.0
    ma_window: int = 5
    band_lo: float = 0.67
    band_hi: float = 4.0
    background_margin: int = 10
    strategy: str = "mask"
    skin_tau: float = 0.3

    def __post_init__(self):
        check_params(self)
        if not 0.0 < self.mu <= 2.0:
            raise ValueError(f"mu must lie in (0, 2], got {self.mu}")
        if self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order}")
        if self.segment_s <= 0:
            raise ValueError(f"segment_s must be positive, got {self.segment_s}")
        # 100 is allowed and means "discard nothing": no SD exceeds the max.
        if not 0.0 < self.discard_percentile <= 100.0:
            raise ValueError(
                f"discard_percentile must lie in (0, 100], got {self.discard_percentile}"
            )
        if self.detrend_lambda < 0:
            raise ValueError(f"detrend_lambda must be non-negative, got {self.detrend_lambda}")
        if self.detrend_lambda * self.detrend_lambda == np.inf:  # detrending weighs by the square
            raise ValueError(f"detrend_lambda={self.detrend_lambda} is too large: its square overflows")
        if self.ma_window < 1 or self.ma_window % 2 == 0:
            raise ValueError(f"ma_window must be a positive odd integer, got {self.ma_window}")
        if self.background_margin < 0:
            raise ValueError(f"background_margin must be non-negative, got {self.background_margin}")
        self.band  # BandHz checks the edges

    @cached_property
    def band(self) -> BandHz:
        return BandHz(self.band_lo, self.band_hi)


def background_trace(seq: FrameSequence, roi: RoiTrack, margin: int = 10) -> Signal1D:
    """Mean green value of everything outside the ROI box grown by ``margin``.

    The one-feature call of :func:`~rppgbench.roi.pixel_features`. Raises
    DataError when the grown box swallows the whole frame on some frame (no
    background pixels remain).
    """
    return _memo({}, ("background", margin), lambda: pixel_features(seq, roi, [("background", margin)]))


def eliminate_motion_segments(s: Signal1D, segment_s: float, p: float) -> tuple[Signal1D, tuple[int, ...], int]:
    """Drop segments whose SD exceeds the p-th percentile of all segment SDs.

    The signal is cut into consecutive segments of ``segment_s`` seconds (the
    last one may be shorter). Discarding uses a strict comparison, so ``p=100``
    keeps everything. After each gap the whole run of survivors is level-shifted
    so the run's head mean continues the predecessor's tail mean.

    Returns the concatenated survivors, the dropped indices and the segment count.
    """
    if segment_s <= 0:
        raise ValueError(f"segment_s must be positive, got {segment_s}")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    n = len(s)
    seg_len = max(1, int(round(min(segment_s * s.fs, n))))  # capped: a huge segment_s would overflow int()
    segments = [s.samples[b:b + seg_len] for b in range(0, n, seg_len)]
    if len(segments) < 2:
        raise DataError(
            f"need at least 2 segments, got {len(segments)} "
            f"({segment_s} s segments over {n / s.fs:.2f} s)"
        )
    sds = np.array([seg.std() for seg in segments])
    threshold = np.percentile(sds, p)
    match_len = max(1, int(round(REJOIN_MATCH_S * s.fs)))
    kept: list[np.ndarray] = []
    discarded: list[int] = []
    shift = 0.0
    for idx, segment in enumerate(segments):
        if sds[idx] > threshold:
            discarded.append(idx)
            continue
        if kept and discarded and discarded[-1] == idx - 1:
            shift = kept[-1][-match_len:].mean() - segment[:match_len].mean()
        kept.append(segment + shift)
    if discarded:
        log.info("discarded %d/%d segments", len(discarded), len(segments))
    return Signal1D(np.concatenate(kept), s.fs), tuple(discarded), len(segments)


def licvpr_pulse(trace: RgbTrace, background: Signal1D | None, params: LiParams = LiParams()) -> PulseSignal:
    """Extract the pulse from the green channel of a skin RGB trace.

    ``background`` is the frame-aligned background green trace; it is read
    only with ``rectify=True`` and may be None otherwise. Output length
    equals the post-elimination length.
    """
    x = Signal1D(trace.means[:, 1], trace.fs)
    if params.rectify:
        if background is None:
            raise ValueError("rectify=True needs a background trace")
        x = nlms_rectify(x, background, mu=params.mu, order=params.order)
    x, discarded, n_segments = eliminate_motion_segments(x, params.segment_s, params.discard_percentile)
    x = detrend_smoothness_priors(x, params.detrend_lambda)
    x = moving_average(x, params.ma_window)
    x = bandpass(x, params.band)
    samples = x.samples - x.samples.mean()
    return PulseSignal(
        samples=samples,
        fs=trace.fs,
        fallback_fraction=trace.fallback_fraction,
        discarded_fraction=len(discarded) / n_segments,
    )
