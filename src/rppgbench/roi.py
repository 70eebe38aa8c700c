"""Skin-pixel selection: chromaticity skin model, polygon masks, RGB traces."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DataError
from .io import FrameSequence, RoiBox, RoiPolygon, RoiTrack

__all__ = [
    "SkinModel",
    "RgbTrace",
    "STRATEGIES",
    "check_finite",
    "check_params",
    "check_selection",
    "fit_skin_model",
    "lower_face_mask",
    "mean_rgb_trace",
    "iter_roi_pixels",
]

log = logging.getLogger(__name__)

STRATEGIES = ("bbox", "skin", "mask")

#: Ridge added to a degenerate chromaticity covariance.
COV_RIDGE = 1e-6
_COV_EIG_FLOOR = 1e-12
#: Pixels per chunk of the moments pass (8 frames of a 32x32 ROI). A float64
#: plane of a chunk is then 64 KiB, under glibc's default mmap threshold of
#: 128 KiB. With 16 or 32 frames the chunk temporaries were mapped, or trimmed
#: off the heap, and faulted in again on every chunk: about 100k minor faults
#: per eval-small benchmark round, against under 2k with 8 frames.
CHUNK_PIXELS = 32 * 32 * 8


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def check_finite(params) -> None:
    """Reject a dataclass with a NaN or infinite float field, alone or in a tuple, naming each such field."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    bad = [f"{k}={v}" for k, v in values.items()
           if any(isinstance(x, float) and not np.isfinite(x) for x in (v if isinstance(v, tuple) else (v,)))]
    if bad:
        raise ValueError(f"parameters must be finite, got {', '.join(bad)}")


def check_selection(strategy: str, skin_tau: float) -> None:
    """Reject a selection no run can use: an unknown strategy, or a skin threshold outside (0, 1)."""
    _check_strategy(strategy)
    if not 0.0 < skin_tau < 1.0:
        raise ValueError(f"skin_tau must lie in (0, 1), got {skin_tau}")


def check_params(params) -> None:
    """Reject extractor parameters no run can use: NaN or infinite floats, or a bad selection."""
    check_finite(params)
    check_selection(params.strategy, params.skin_tau)


@dataclass(frozen=True)
class SkinModel:
    """A Gaussian skin model in normalized (r, g) chromaticity space.

    ``cov`` must be symmetric positive definite with a finite inverse, else ValueError;
    :func:`fit_skin_model` adds a ridge of ``COV_RIDGE`` to a degenerate one.
    """

    mean: np.ndarray
    cov: np.ndarray
    tau: float

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        cov = np.array(self.cov, dtype=np.float64)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("mean must be shaped (2,) and cov (2, 2)")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("model parameters must be finite")
        if not (np.array_equal(cov, cov.T) and np.linalg.eigvalsh(cov).min() > 0.0
                and np.all(np.isfinite(np.linalg.inv(cov)))):
            raise ValueError(f"cov must be symmetric positive definite with a finite inverse, got {cov.tolist()}")
        tau = float(self.tau)
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie strictly inside (0, 1), got {tau}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "tau", tau)

    def mahalanobis_limit(self) -> float:
        """Boundary squared distance: pixels with d^2 <= -2 ln(tau) are kept."""
        return -2.0 * float(np.log(self.tau))

    @cached_property
    def inv_cov(self) -> np.ndarray:
        """The inverse covariance, computed once per model."""
        inv = np.linalg.inv(self.cov)
        inv.setflags(write=False)
        return inv


@dataclass(frozen=True)
class RgbTrace:
    """Per-frame statistics of the selected pixels, at the video frame rate.

    ``means`` (n, 3) is each frame's mean RGB; ``correlations`` (n, 3, 3)
    is each frame's pixel correlation matrix ``C = V'V / N`` over its N
    selected pixels ``V``, which SSR decomposes.
    """

    means: np.ndarray
    correlations: np.ndarray
    fs: float
    pixel_counts: np.ndarray
    fallback_frames: tuple[int, ...] = ()

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64)
        correlations = np.array(self.correlations, dtype=np.float64)
        counts = np.array(self.pixel_counts, dtype=np.int64)
        if means.ndim != 2 or means.shape[1] != 3 or means.shape[0] == 0:
            raise ValueError("means must be shaped (n_frames, 3) with n_frames >= 1")
        if correlations.shape != (means.shape[0], 3, 3):
            raise ValueError("correlations must be shaped (n_frames, 3, 3)")
        if counts.shape != (means.shape[0],):
            raise ValueError("pixel_counts must hold one count per frame")
        if np.any(counts < 1):
            raise ValueError("every frame must contribute at least one pixel")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(correlations))):
            raise ValueError("trace means and correlations must be finite")
        if means.min() < 0.0 or means.max() > 255.0:
            raise ValueError("trace means must stay within [0, 255]")
        fs = float(self.fs)
        if not np.isfinite(fs) or fs <= 0:
            raise ValueError(f"frame rate must be finite and positive, got {self.fs!r}")
        means.setflags(write=False)
        correlations.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "correlations", correlations)
        object.__setattr__(self, "pixel_counts", counts)
        object.__setattr__(self, "fs", fs)
        object.__setattr__(self, "fallback_frames", tuple(int(i) for i in self.fallback_frames))

    def __len__(self) -> int:
        return int(self.means.shape[0])

    @property
    def fallback_fraction(self) -> float:
        return len(self.fallback_frames) / self.means.shape[0]


def _chromaticity(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (r, g) chromaticity of channel planes (3, ...).

    Pixels with zero intensity get the achromatic point (1/3, 1/3).
    """
    total = planes[0] + planes[1] + planes[2]
    dark = ~(total > 0)
    total[dark] = 1.0
    r = planes[0] / total
    g = planes[1] / total
    r[dark] = g[dark] = 1.0 / 3.0
    return r, g


def fit_skin_model(frame: np.ndarray, roi: RoiBox | RoiPolygon, tau: float) -> SkinModel:
    """Fit the chromaticity Gaussian on the central quarter of a ROI.

    Parameters
    ----------
    frame : (h, w, 3) image.
    roi : RoiBox or RoiPolygon locating the face; at least 100 pixels, and
        its seed (below) inside the frame, else DataError.
    tau : relative likelihood threshold in (0, 1).

    The seed region is the centered sub-rectangle with half the width and
    half the height of the ROI (a quarter of its area), which reliably sits
    on skin when the ROI is a face box.
    """
    box = roi.bbox()
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("frame must be shaped (h, w, 3)")
    if box.w * box.h < 100:
        raise DataError(f"ROI must contain at least 100 pixels, got {box.w * box.h}")
    seed_w = max(1, box.w // 2)
    seed_h = max(1, box.h // 2)
    seed = RoiBox(box.x + (box.w - seed_w) // 2, box.y + (box.h - seed_h) // 2, seed_w, seed_h)
    height, width = frame.shape[:2]
    if seed.x < 0 or seed.y < 0 or seed.x + seed.w > width or seed.y + seed.h > height:
        raise DataError(f"skin seed {seed} of ROI {box} lies outside the {width}x{height} frame")
    seed_pixels = frame[seed.y:seed.y + seed.h, seed.x:seed.x + seed.w].reshape(-1, 3)
    chrom = np.stack(_chromaticity(seed_pixels.T.astype(np.float64)), axis=-1)
    mean = chrom.mean(axis=0)
    cov = np.cov(chrom, rowvar=False, ddof=1)
    if np.linalg.eigvalsh(cov).min() < _COV_EIG_FLOOR:
        cov = cov + COV_RIDGE * np.eye(2)
    return SkinModel(mean=mean, cov=cov, tau=tau)


def _skin_select(planes: np.ndarray, model: SkinModel) -> np.ndarray:
    """Boolean mask of pixels whose peak-normalized skin likelihood >= tau.

    ``planes`` holds RGB values as channel planes (3, ...). Normalizing the
    Gaussian to its peak turns the threshold into a squared Mahalanobis
    limit of -2 ln(tau); the boundary is kept.
    """
    r, g = _chromaticity(planes)
    dr = r - model.mean[0]
    dg = g - model.mean[1]
    q = model.inv_cov
    # delta' Q delta as its four products in row order, every step rounded alike on any build.
    d2 = dr * q[0, 0] * dr + dr * q[0, 1] * dg + dg * q[1, 0] * dr + dg * q[1, 1] * dg
    return d2 <= model.mahalanobis_limit()


def _check_simple_polygon(points) -> None:
    """Reject a polygon in which two edges that share no vertex cross or touch.

    Edge i runs from vertex i to vertex i + 1, the last one closing the
    polygon. One array pass per edge tests it against the later edges that
    share none of its vertices, with four orientation products: the edges
    cross when each has one end strictly left of the other and one not, and
    touch when an end is collinear with the other edge and inside its box.
    """
    start = np.asarray(points).T
    end = np.roll(start, -1, axis=1)
    k = start.shape[1]
    for i in range(k - 2):
        p1, p2 = start[:, i:i + 1], end[:, i:i + 1]
        p3, p4 = start[:, i + 2:k - (i == 0)], end[:, i + 2:k - (i == 0)]  # edge 0 meets edge k - 1
        tests = ((p3, p4, p1), (p3, p4, p2), (p1, p2, p3), (p1, p2, p4))
        d = [(b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) for a, b, c in tests]
        hit = ((d[0] > 0) != (d[1] > 0)) & ((d[2] > 0) != (d[3] > 0))
        for orient, (a, b, c) in zip(d, tests):
            hit |= (orient == 0) & (np.minimum(a, b) <= c).all(axis=0) & (c <= np.maximum(a, b)).all(axis=0)
        if hit.any():
            raise DataError("landmark polygon must be simple (non self-intersecting)")


def lower_face_mask(landmarks: RoiPolygon) -> np.ndarray:
    """Rasterize a landmark polygon into a boolean mask over its box ``landmarks.bbox()``.

    A pixel belongs to the mask when its center satisfies the even-odd rule,
    with centers that fall exactly on an edge counted inside. The polygon must
    be simple. No pixel center outside the box meets either rule.
    """
    points = landmarks.points
    _check_simple_polygon(points)
    box = landmarks.bbox()
    gx, gy = np.meshgrid(np.arange(box.x, box.x + box.w) + 0.5, np.arange(box.y, box.y + box.h) + 0.5)
    inside = np.zeros((box.h, box.w), dtype=bool)
    on_edge = np.zeros_like(inside)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        # Only rows of the edge's own box grown by a pixel can cross the edge,
        # and only centers in that box can lie within 1e-9 of it.
        rows = slice(max(math.floor(min(y1, y2)) - box.y - 1, 0), math.ceil(max(y1, y2)) - box.y + 1)
        cols = slice(max(math.floor(min(x1, x2)) - box.x - 1, 0), math.ceil(max(x1, x2)) - box.x + 1)
        row_y = gy[rows]
        crosses = (y1 > row_y) != (y2 > row_y)
        if np.any(crosses):
            x_int = x1 + (row_y - y1) * (x2 - x1) / (y2 - y1)
            inside[rows] ^= crosses & (gx[rows] < x_int)
        # Boundary inclusion: distance of the center to the edge segment.
        ex, ey = x2 - x1, y2 - y1
        seg_len2 = ex * ex + ey * ey
        if seg_len2 == 0:
            continue
        near_x, near_y = gx[rows, cols], gy[rows, cols]
        t = ((near_x - x1) * ex + (near_y - y1) * ey) / seg_len2
        t = np.clip(t, 0.0, 1.0)
        dist2 = (near_x - (x1 + t * ex)) ** 2 + (near_y - (y1 + t * ey)) ** 2
        on_edge[rows, cols] |= dist2 <= 1e-18
    return inside | on_edge


def _selected_chunks(seq: FrameSequence, roi: RoiTrack, strategy: str, model: SkinModel | None):
    """Yield ``(start, x, mask, fallback)`` per chunk of frames, in one pass over ``seq``.

    ``x`` holds the ROI box of frames ``start..start+c-1`` as float64
    channel rows (c, 3, P), P pixels in row-major order, in a buffer that
    the next chunk overwrites; ``mask`` is the (c, P) skin test or the run's
    region (whole box or polygon), in which frames whose selection came up
    empty (``fallback``) keep the whole box.
    """
    _check_strategy(strategy)
    with seq.reader() as read:
        for start, stop, entry in roi.runs(seq.n_frames):
            box = entry.bbox()
            if box.x < 0 or box.y < 0 or box.x + box.w > seq.width or box.y + box.h > seq.height:
                raise DataError(f"ROI for frame {start} exceeds the frame bounds")
            if strategy == "skin" and model is None:
                raise ValueError("strategy 'skin' requires a fitted SkinModel")
            if strategy == "mask":
                if not isinstance(entry, RoiPolygon):
                    raise DataError("strategy 'mask' requires landmark ROI entries")
                region = lower_face_mask(entry).reshape(-1)
            else:
                region = np.ones(box.h * box.w, dtype=bool)
            step = max(1, CHUNK_PIXELS // (box.w * box.h))
            buffer = np.empty((min(step, stop - start), 3, box.h * box.w))
            for a in range(start, stop, step):
                block = read(a, min(a + step, stop))[:, box.y:box.y + box.h, box.x:box.x + box.w]
                x = buffer[:len(block)]
                np.copyto(x.reshape(len(block), 3, box.h, box.w), block.transpose(0, 3, 1, 2))
                if strategy == "skin":
                    mask = _skin_select(x.transpose(1, 0, 2), model)
                else:
                    mask = np.broadcast_to(region, (len(x), region.size))
                fallback = ~mask.any(axis=1)
                if fallback.any():
                    mask = mask | fallback[:, None]
                yield a, x, mask, fallback


def iter_roi_pixels(seq: FrameSequence, roi: RoiTrack, strategy: str = "bbox", model: SkinModel | None = None):
    """Yield ``(pixels, fallback)`` per frame, selecting pixels per strategy.

    ``pixels`` is a float64 array of shape (N, 3); ``fallback`` is True when
    the skin or polygon selection came up empty and the full box was used.
    """
    for _, x, mask, fallback in _selected_chunks(seq, roi, strategy, model):
        for j in range(len(x)):
            yield np.ascontiguousarray(x[j][:, mask[j]].T), bool(fallback[j])


def mean_rgb_trace(seq: FrameSequence, roi: RoiTrack, strategy: str = "bbox", model: SkinModel | None = None) -> RgbTrace:
    """Average the selected pixels, and their products, of every frame into an RGB trace.

    One vectorized pass over chunks of frames that share a ROI entry, read
    from ``seq`` a block at a time (see :meth:`FrameSequence.reader`); the
    selection per strategy and the full-box fallback are those of
    :func:`iter_roi_pixels`. Sums of uint8 values and of their products are
    integers far below 2**53, so they are exact in float64 and independent
    of summation order.
    """
    n = seq.n_frames
    counts = np.empty(n, dtype=np.int64)
    sums = np.empty((n, 3))
    products = np.empty((n, 3, 3))
    fell_back = np.empty(n, dtype=bool)
    for start, x, mask, fallback in _selected_chunks(seq, roi, strategy, model):
        stop = start + len(x)
        counts[start:stop] = mask.sum(axis=1)
        weighted = x * mask[:, None, :]
        sums[start:stop] = weighted.sum(axis=2)
        products[start:stop] = weighted @ x.transpose(0, 2, 1)
        fell_back[start:stop] = fallback
    fallbacks = np.flatnonzero(fell_back)
    if fallbacks.size:
        log.info("ROI fallback on %d/%d frames", fallbacks.size, n)
    return RgbTrace(
        means=sums / counts[:, None],
        correlations=products / counts[:, None, None],
        fs=float(seq.fps),
        pixel_counts=counts,
        fallback_frames=fallbacks,
    )
