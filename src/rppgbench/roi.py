"""Skin-pixel selection: chromaticity skin model, polygon masks, RGB traces."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import DataError, _memo
from .io import BLOCK_BYTES, FrameSequence, RoiBox, RoiPolygon, RoiTrack
from .signals import Signal1D

__all__ = [
    "SkinModel",
    "RgbTrace",
    "STRATEGIES",
    "check_finite",
    "check_params",
    "check_selection",
    "fit_skin_model",
    "lower_face_mask",
    "pixel_key",
    "pixel_features",
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
#: Colours a skin pass's colour table holds at most (see :class:`_SkinTable`): its codes then take 64 KiB, one
#: float64 plane of a chunk. A ROI of uniformly random colours would otherwise grow the table to all 2**24 colours.
TABLE_COLOURS = 8 * CHUNK_PIXELS
#: Values the table's box reaches past a chunk's colour range when it grows, so that later chunks seldom grow it.
_TABLE_PAD = 4


def check_finite(params) -> None:
    """Reject a dataclass with a NaN or infinite float field, alone or in a tuple, naming each such field."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    bad = [f"{k}={v}" for k, v in values.items()
           if any(isinstance(x, float) and not np.isfinite(x) for x in (v if isinstance(v, tuple) else (v,)))]
    if bad:
        raise ValueError(f"parameters must be finite, got {', '.join(bad)}")


def check_selection(strategy: str, skin_tau: float) -> None:
    """Reject a selection no run can use: an unknown strategy, or a skin threshold outside (0, 1)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if not 0.0 < skin_tau < 1.0:
        raise ValueError(f"skin_tau must lie in (0, 1), got {skin_tau}")


def pixel_key(kind: str, strategy: str, skin_tau) -> tuple:
    """A selection's ``"rgb"``, ``"corr"`` or ``"eigens"`` key: its ``skin_tau`` counts only under ``skin``."""
    return (kind, strategy, skin_tau if strategy == "skin" else None)


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
        return -2.0 * math.log(self.tau)

    @cached_property
    def inv_cov(self) -> np.ndarray:
        """The inverse covariance, computed once per model."""
        inv = np.linalg.inv(self.cov)
        inv.setflags(write=False)
        return inv


@dataclass(frozen=True)
class RgbTrace:
    """Per-frame statistics of the selected pixels, at the video frame rate.

    ``means`` (n, 3) is each frame's mean RGB; ``correlations`` (n, 3, 3),
    None unless asked for, is each frame's pixel correlation matrix
    ``C = V'V / N`` over its N selected pixels ``V``, which SSR decomposes.
    """

    means: np.ndarray
    fs: float
    pixel_counts: np.ndarray
    fallback_frames: tuple[int, ...] = ()
    correlations: np.ndarray | None = None

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64)
        correlations = None if self.correlations is None else np.array(self.correlations, dtype=np.float64)
        counts = np.array(self.pixel_counts, dtype=np.int64)
        if means.ndim != 2 or means.shape[1] != 3 or means.shape[0] == 0:
            raise ValueError("means must be shaped (n_frames, 3) with n_frames >= 1")
        if correlations is not None and correlations.shape != (means.shape[0], 3, 3):
            raise ValueError("correlations must be shaped (n_frames, 3, 3)")
        if counts.shape != (means.shape[0],):
            raise ValueError("pixel_counts must hold one count per frame")
        if np.any(counts < 1):
            raise ValueError("every frame must contribute at least one pixel")
        if not (np.all(np.isfinite(means)) and (correlations is None or np.all(np.isfinite(correlations)))):
            raise ValueError("trace means and correlations must be finite")
        if means.min() < 0.0 or means.max() > 255.0:
            raise ValueError("trace means must stay within [0, 255]")
        fs = float(self.fs)
        if not np.isfinite(fs) or fs <= 0:
            raise ValueError(f"frame rate must be finite and positive, got {self.fs!r}")
        for array in (means, correlations, counts):
            if array is not None:
                array.setflags(write=False)
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


def _skin_seed(box: RoiBox, width: int, height: int) -> RoiBox:
    """The seed box of a skin fit (see :func:`fit_skin_model`); DataError under 100 ROI pixels or off the frame."""
    if box.w * box.h < 100:
        raise DataError(f"ROI must contain at least 100 pixels, got {box.w * box.h}")
    seed_w = max(1, box.w // 2)
    seed_h = max(1, box.h // 2)
    seed = RoiBox(box.x + (box.w - seed_w) // 2, box.y + (box.h - seed_h) // 2, seed_w, seed_h)
    if not seed.within(width, height):
        raise DataError(f"skin seed {seed} of ROI {box} lies outside the {width}x{height} frame")
    return seed


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
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("frame must be shaped (h, w, 3)")
    seed = _skin_seed(roi.bbox(), frame.shape[1], frame.shape[0])
    seed_pixels = frame[seed.y:seed.y + seed.h, seed.x:seed.x + seed.w].reshape(-1, 3)
    chrom = np.stack(_chromaticity(seed_pixels.T.astype(np.float64)), axis=-1)
    mean = chrom.mean(axis=0)
    cov = np.cov(chrom, rowvar=False, ddof=1)
    if np.linalg.eigvalsh(cov).min() < _COV_EIG_FLOOR:
        cov = cov + COV_RIDGE * np.eye(2)
    return SkinModel(mean=mean, cov=cov, tau=tau)


def _skin_select(planes: np.ndarray, model: SkinModel, limits) -> list[np.ndarray]:
    """Boolean masks of the pixels whose peak-normalized skin likelihood >= tau, one per limit in ``limits``.

    ``planes`` holds RGB values as channel planes (3, ...). Normalizing the
    Gaussian to its peak turns a threshold tau into a squared Mahalanobis
    limit of -2 ln(tau); the boundary is kept. The model's mean and
    covariance do not depend on tau, so every limit reads one d^2.
    """
    r, g = _chromaticity(planes)
    dr = r - model.mean[0]
    dg = g - model.mean[1]
    q = model.inv_cov
    # delta' Q delta as its four products in row order, every step rounded alike on any build:
    # dr*q00*dr + dr*q01*dg + dg*q10*dr + dg*q11*dg, summed in place into one array.
    d2 = dr * q[0, 0]
    d2 *= dr
    term = np.empty_like(d2)
    for a, qab, b in ((dr, q[0, 1], dg), (dg, q[1, 0], dr), (dg, q[1, 1], dg)):
        np.multiply(a, qab, out=term)
        term *= b
        d2 += term
    return [d2 <= limit for limit in limits]


class _SkinTable:
    """The skin masks of a pass's pixel chunks, from one code per colour in a box of RGB values.

    A colour's code is 1 plus the number of ``limits`` its d^2 meets, 0 until it is evaluated. The limits are
    nested, so a colour meets ``limit`` exactly when its code exceeds the number of limits at least ``limit``.
    Codes come from :func:`_skin_select` on the box's colours, so every mask equals the per-pixel test bit for bit.
    The box grows to take in each chunk's colour range, padded by ``_TABLE_PAD``, and evaluates only its new
    colours, in pieces of half a chunk; a chunk that would take it past ``TABLE_COLOURS`` colours is
    tested pixel by pixel. A pass thus evaluates at most its pixels plus ``TABLE_COLOURS`` colours.
    """

    def __init__(self, model: SkinModel, limits):
        self.model, self.limits = model, limits
        self.thresholds = [sum(other >= limit for other in limits) for limit in limits]
        self.lo, self.hi = np.full(3, 256), np.full(3, -1)  # an empty box
        self.codes = np.zeros(0, np.min_scalar_type(len(limits) + 1))
        self.weights, self.offset = np.zeros(3), 0.0  # a colour's key: weights @ colour - offset

    def masks(self, x: np.ndarray) -> list[np.ndarray]:
        """One (c, P) mask per limit for a chunk ``x`` (c, 3, P) of float64 RGB values."""
        low, high = x.min(axis=(0, 2)).astype(np.int64), x.max(axis=(0, 2)).astype(np.int64)
        if ((low < self.lo) | (high > self.hi)).any() and not self._grow(low, high):
            return _skin_select(x.transpose(1, 0, 2), self.model, self.limits)
        key = self.weights @ x  # each colour's row-major index in the box, an integer below 2**24: exact
        key -= self.offset
        codes = self.codes[key.astype(np.intp)]
        return [codes > threshold for threshold in self.thresholds]

    def _grow(self, low: np.ndarray, high: np.ndarray) -> bool:
        """Take colours ``low`` to ``high`` (per channel) into the box; False, with the box unchanged, past the cap."""
        lo = np.maximum(np.minimum(low - _TABLE_PAD, self.lo), 0)
        hi = np.minimum(np.maximum(high + _TABLE_PAD, self.hi), 255)
        shape = hi - lo + 1
        if np.prod(shape) > TABLE_COLOURS:
            return False
        codes = np.zeros(shape, self.codes.dtype)
        if self.codes.size:
            codes[tuple(map(slice, self.lo - lo, self.hi - lo + 1))] = self.codes.reshape(self.hi - self.lo + 1)
        codes = codes.ravel()
        # Half a chunk per piece: its colour planes and indices with the test's d^2 temporaries then take no more
        # memory than a chunk's test did (a whole chunk per piece raised peak_rss_mb by 0.5 to 1.1 MB).
        step = CHUNK_PIXELS // 2
        for start in range(0, codes.size, step):
            piece = codes[start:start + step]
            fresh = np.flatnonzero(piece == 0)
            colours = np.array(np.unravel_index(start + fresh, shape), dtype=np.float64)
            colours += lo[:, None]
            piece[fresh] = 1 + np.sum(_skin_select(colours, self.model, self.limits), axis=0)
        self.lo, self.hi, self.codes = lo, hi, codes
        self.weights = np.array([shape[1] * shape[2], shape[2], 1], dtype=np.float64)
        self.offset = float(self.weights @ lo)
        return True


def lower_face_mask(landmarks: RoiPolygon) -> np.ndarray:
    """Rasterize a landmark polygon into a boolean mask over its box ``landmarks.bbox()``.

    A pixel belongs to the mask when its center satisfies the even-odd rule, with centers on an edge
    counted inside; no pixel center outside the box meets either rule. The polygon is simple by
    construction (see :class:`RoiPolygon`), so nothing is checked here.
    """
    points = landmarks.points
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


def _background_window(box: RoiBox, margin: int, width: int, height: int) -> tuple[slice, slice, int]:
    """Rows and columns of ``box`` grown by ``margin`` px and clipped to the frame, and the pixel count outside them."""
    x0, y0 = max(box.x - margin, 0), max(box.y - margin, 0)
    x1, y1 = min(box.x + box.w + margin, width), min(box.y + box.h + margin, height)
    return slice(y0, y1), slice(x0, x1), width * height - (x1 - x0) * (y1 - y0)


def _failure(key, seq: FrameSequence, roi: RoiTrack, fit: bool) -> DataError | None:
    """The error a :func:`pixel_features` pass of ``key`` alone would raise, or None: the skin fit's on
    frame 0 (when ``fit``), then each ROI run's bounds check, then its landmark check. A key other than
    a :func:`pixel_key` of a known strategy and τ, or ``("background", int >= 0)``, raises ValueError."""
    match key:
        case ("rgb" | "corr", "skin", float(tau)) if 0.0 < tau < 1.0:
            pass
        case ("rgb" | "corr", "bbox" | "mask", None):
            pass
        case ("background", int(margin)) if margin >= 0 and not isinstance(margin, bool):
            pass
        case _:
            raise ValueError(f"not a pixel feature key: {key!r}; expected ('rgb' or 'corr', strategy in "
                             f"{STRATEGIES}, skin_tau in (0, 1) under 'skin' else None) or ('background', margin >= 0)")
    if key[1] == "skin" and fit:
        try:
            _skin_seed(roi.entries[0].bbox(), seq.width, seq.height)
        except DataError as exc:
            return exc.with_traceback(None)
    for start, _, entry in roi.runs(seq.n_frames):
        box = entry.bbox()
        if key[0] == "background":
            if _background_window(box, key[1], seq.width, seq.height)[2] <= 0:
                return DataError(f"no background pixels left at frame {start}: "
                                 f"the ROI grown by {key[1]} px covers the frame")
        elif not box.within(seq.width, seq.height):
            return DataError(f"ROI for frame {start} exceeds the frame bounds")
        elif key[1] == "mask" and not isinstance(entry, RoiPolygon):
            return DataError("strategy 'mask' requires landmark ROI entries")
    return None


def pixel_features(seq: FrameSequence, roi: RoiTrack, keys, model: SkinModel | None = None) -> dict:
    """Compute every pixel feature named in ``keys`` in one pass over ``seq``.

    A key is ``pixel_key("rgb", strategy, skin_tau)`` for a selection's :class:`RgbTrace`
    without correlations, ``pixel_key("corr", strategy, skin_tau)`` for it with them, or
    ``("background", margin)`` for the mean green value of everything outside the ROI box
    grown by ``margin`` pixels, a :class:`Signal1D`; any other key raises ValueError.
    Returns each key's feature, or the exception that failed it: a feature fails alone,
    with the error a pass of its own would raise, decided from the ROI track and the frame
    size before the pass (see :func:`_failure`), which computes only the others and reads
    no block when every key fails. Bad arguments and failed reads raise.

    The pass reads each ROI run in chunks of about ``CHUNK_PIXELS`` box pixels and at most
    ``BLOCK_BYTES`` of frames (see :meth:`FrameSequence.reader`), and copies and reduces
    each chunk's frames once. Each selection is a 0/1 weight per box pixel, built once per
    ROI run under ``bbox`` and ``mask``; under ``skin`` one code per colour serves every
    ``skin_tau`` (``model``, else fitted on frame 0), from a table of the colours the pass
    meets, capped at ``TABLE_COLOURS`` colours, past which a chunk's pixels are tested one
    by one (see :class:`_SkinTable`). An empty selection keeps the whole box. Its sums are
    one product of the chunk with the weights; its 3x3 products are taken once, for
    ``"corr"`` keys only. Background sums are one product of each chunk's green planes with
    a 0/1 weight per margin, reset per ROI run to 0 inside its window. All sums are integers
    below 2**53, exact in any order.
    """
    keys = list(dict.fromkeys(keys))
    n = seq.n_frames
    out = {key: _failure(key, seq, roi, model is None) for key in keys}
    wanted = [key for key in keys if key[0] != "background" and out[key] is None]
    corr = {key[1:] for key in wanted if key[0] == "corr"}
    # selection (strategy, skin_tau) -> counts, sums, products (None without a "corr" key), fallback flags
    traces = {key[1:]: (np.empty(n, dtype=np.int64), np.empty((n, 3)), np.empty((n, 3, 3)) if key[1:] in corr else None,
                        np.empty(n, dtype=bool)) for key in wanted}
    margins = [key for key in keys if key[0] == "background" and out[key] is None]
    # Chunks of about CHUNK_PIXELS box pixels, and of at most BLOCK_BYTES of frames (one frame at the least).
    max_frames = max(1, BLOCK_BYTES // (seq.width * seq.height * 3))
    greens, planes = np.empty((n, len(margins))), np.empty((max_frames if margins else 0, seq.height * seq.width))
    # Per margin, 1 for each pixel outside the window of the current ROI run.
    outside = np.empty((len(margins), seq.height, seq.width))
    skins = [selection for selection in traces if selection[0] == "skin"]
    with seq.reader() as read:
        if skins and model is None:
            model = fit_skin_model(read(0, 1)[0], roi.entries[0], skins[0][1])
        table = _SkinTable(model, [replace(model, tau=selection[1]).mahalanobis_limit() for selection in skins])
        for start, stop, entry in roi.runs(n) if traces or margins else ():
            box = entry.bbox()
            chunk = min(max(1, CHUNK_PIXELS // (box.w * box.h)), max_frames)
            weights = {}
            for selection, (counts, _, _, fell_back) in traces.items():
                if selection[0] != "skin":  # the same weights for every frame of the run
                    region = lower_face_mask(entry).ravel() if selection[0] == "mask" else np.ones(box.h * box.w, bool)
                    fell_back[start:stop] = empty = not region.any()
                    counts[start:stop] = region.size if empty else np.count_nonzero(region)
                    weights[selection] = (region | empty).astype(np.float64)
            n_outside = np.empty(len(margins))
            for j, key in enumerate(margins):
                rows, cols, n_outside[j] = _background_window(box, key[1], seq.width, seq.height)
                outside[j] = 1.0
                outside[j][rows, cols] = 0.0
            buffer = np.empty((min(chunk, stop - start) if traces else 0, 3, box.h * box.w))
            spare = np.empty_like(buffer) if corr else None  # the products' left operand: numpy copies overlaps
            for f in range(start, stop, chunk):
                frames = read(f, min(f + chunk, stop))
                c = len(frames)
                x = buffer[:c]
                if traces:
                    np.copyto(x.reshape(c, 3, box.h, box.w),
                              frames[:, box.y:box.y + box.h, box.x:box.x + box.w].transpose(0, 3, 1, 2))
                if skins:
                    selected = dict(zip(skins, table.masks(x)))
                for selection, (counts, sums, products, fell_back) in traces.items():
                    if selection[0] == "skin":
                        mask = selected[selection]
                        fell_back[f:f + c] = fallback = ~mask.any(axis=1)
                        mask[fallback] = True
                        counts[f:f + c] = mask.sum(axis=1)
                        w = mask.astype(np.float64)[:, None, :]
                        sums[f:f + c] = (x @ w.reshape(c, -1, 1))[:, :, 0]
                    else:
                        w = weights[selection]
                        sums[f:f + c] = (x.reshape(3 * c, -1) @ w).reshape(c, 3)
                    if products is not None:
                        np.multiply(x, w, out=spare[:c])
                        products[f:f + c] = spare[:c] @ x.transpose(0, 2, 1)
                if margins:
                    np.copyto(planes[:c].reshape(-1, seq.height, seq.width), frames[:, :, :, 1])
                    greens[f:f + c] = (planes[:c] @ outside.reshape(len(margins), -1).T) / n_outside
    for j, key in enumerate(margins):
        out[key] = Signal1D(greens[:, j], seq.fps)
    for key in wanted:
        counts, sums, products, fell_back = traces[key[1:]]
        fallbacks = np.flatnonzero(fell_back)
        if fallbacks.size:
            log.info("ROI fallback on %d/%d frames", fallbacks.size, n)
        out[key] = RgbTrace(means=sums / counts[:, None], fs=seq.fps, pixel_counts=counts, fallback_frames=fallbacks,
                            correlations=products / counts[:, None, None] if key[0] == "corr" else None)
    return out


def _model_tau(strategy: str, model: SkinModel | None) -> float | None:
    """The skin_tau of a one-selection view: ``model``'s, which ``skin`` needs (else ValueError)."""
    if strategy == "skin" and model is None:
        raise ValueError("strategy 'skin' requires a fitted SkinModel")
    return None if model is None else model.tau


def mean_rgb_trace(seq: FrameSequence, roi: RoiTrack, strategy: str = "bbox", model: SkinModel | None = None) -> RgbTrace:
    """Average the selected pixels, and their products, of every frame into an RGB trace.

    The one-feature call of :func:`pixel_features`: one vectorized pass over
    ``seq`` under ``strategy``, with ``model`` (its tau too) under ``skin``.
    """
    key = pixel_key("corr", strategy, _model_tau(strategy, model))
    return _memo({}, key, lambda: pixel_features(seq, roi, [key], model))


def iter_roi_pixels(seq: FrameSequence, roi: RoiTrack, strategy: str = "bbox", model: SkinModel | None = None):
    """Yield ``(pixels, fallback)`` per frame: the frame's pixels that
    :func:`mean_rgb_trace` averages, float64 (N, 3), and whether its selection
    came up empty so that the whole box was used.

    A frame-by-frame view for tests and tracing, not a pass of the pipeline.
    A selection that :func:`mean_rgb_trace` would fail raises its error before
    the first frame, decided from the ROI track and the frame size without
    reading a frame; a read error raises at the frame it stops.
    """
    failure = _failure(pixel_key("corr", strategy, _model_tau(strategy, model)), seq, roi, False)
    if failure is not None:
        raise failure
    with seq.reader() as read:
        for start, stop, entry in roi.runs(seq.n_frames):
            box = entry.bbox()
            mask = lower_face_mask(entry) if strategy == "mask" else np.ones((box.h, box.w), dtype=bool)
            for i in range(start, stop):
                pixels = read(i, i + 1)[0, box.y:box.y + box.h, box.x:box.x + box.w].astype(np.float64)
                if strategy == "skin":
                    (mask,) = _skin_select(np.moveaxis(pixels, -1, 0), model, [model.mahalanobis_limit()])
                yield (pixels[mask] if mask.any() else pixels.reshape(-1, 3)), not mask.any()
