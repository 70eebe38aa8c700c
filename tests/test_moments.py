"""Property tests: the chunked moments pass and the batched eigen kernel
against per-frame oracles, bit for bit.

The oracles below are the per-frame definitions: select each frame's pixels
on its own (einsum skin test, polygon raster, full-box fallback), then
average them and form ``V'V``. Every comparison is exact equality.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rppgbench.io import FrameSequence, RoiBox, RoiPolygon, RoiTrack
from rppgbench.licvpr import background_trace
from rppgbench.roi import (
    CHUNK_PIXELS,
    SkinModel,
    _skin_select,
    fit_skin_model,
    iter_roi_pixels,
    lower_face_mask,
    mean_rgb_trace,
)
from rppgbench.ssr import canonical_eigenvector_signs, correlation_eigens, frame_eigen

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# per-frame oracles
# ---------------------------------------------------------------------------

def oracle_skin_mask(sub, model):
    rgb = sub.astype(np.float64)
    total = rgb.sum(axis=-1)
    safe = np.where(total > 0, total, 1.0)
    r = np.where(total > 0, rgb[..., 0] / safe, 1.0 / 3.0)
    g = np.where(total > 0, rgb[..., 1] / safe, 1.0 / 3.0)
    delta = np.stack([r, g], axis=-1) - model.mean
    d2 = np.einsum("...i,ij,...j->...", delta, np.linalg.inv(model.cov), delta)
    return d2 <= -2.0 * math.log(model.tau)


def oracle_frames(seq, roi, strategy, model):
    """(pixels, fallback) per frame, selected one frame at a time."""
    out = []
    for i in range(seq.n_frames):
        entry = roi.entry_for(i)
        box = entry.bbox()
        frame = seq.frames[i]
        sub = frame[box.y:box.y + box.h, box.x:box.x + box.w]
        if strategy == "bbox":
            mask = np.ones(sub.shape[:2], dtype=bool)
        elif strategy == "skin":
            mask = oracle_skin_mask(sub, model)
        else:
            mask = lower_face_mask(entry)
        fallback = not mask.any()
        pixels = sub.reshape(-1, 3) if fallback else sub[mask]
        out.append((pixels.astype(np.float64), fallback))
    return out


def assert_matches_oracle(seq, roi, strategy, model):
    expected = oracle_frames(seq, roi, strategy, model)
    trace = mean_rgb_trace(seq, roi, strategy, model)
    counts = np.array([p.shape[0] for p, _ in expected])
    assert np.array_equal(trace.pixel_counts, counts)
    assert trace.fallback_frames == tuple(i for i, (_, fb) in enumerate(expected) if fb)
    means = np.stack([p.mean(axis=0) for p, _ in expected])
    corr = np.stack([p.T @ p / p.shape[0] for p, _ in expected])
    assert np.array_equal(trace.means, means)
    assert np.array_equal(trace.correlations, corr)
    for (pixels, fallback), (want, want_fb) in zip(iter_roi_pixels(seq, roi, strategy, model), expected):
        assert fallback == want_fb
        assert np.array_equal(pixels, want)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def volume(seed, n, h, w, skin_share):
    """uint8 frames: uniform noise with a share of pixels near a skin tone."""
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    skin = np.clip(rng.normal((180, 120, 100), 6.0, size=(n, h, w, 3)), 0, 255).astype(np.uint8)
    pick = rng.random((n, h, w)) < skin_share
    frames[pick] = skin[pick]
    frames[rng.random((n, h, w)) < 0.02] = 0  # black pixels: achromatic point
    return frames


@st.composite
def polygons(draw, w, h):
    """Convex polygons inside the frame; sometimes too small to hold a pixel center."""
    if draw(st.booleans()):
        x = draw(st.integers(0, w - 1))
        y = draw(st.integers(0, h - 1))
        return RoiPolygon(((x + 0.1, y + 0.1), (x + 0.4, y + 0.1), (x + 0.4, y + 0.4), (x + 0.1, y + 0.4)))
    k = draw(st.integers(4, 8))
    rx = draw(st.floats(1.0, w / 2))
    ry = draw(st.floats(1.0, h / 2))
    cx = draw(st.floats(rx, w - rx))
    cy = draw(st.floats(ry, h - ry))
    phase = draw(st.floats(0.0, 2 * math.pi))
    angles = phase + 2 * math.pi * np.arange(k) / k
    pts = [(min(max(cx + rx * math.cos(a), 0.0), w), min(max(cy + ry * math.sin(a), 0.0), h)) for a in angles]
    return RoiPolygon(tuple(pts))


@st.composite
def boxes(draw, w, h):
    bw = draw(st.integers(1, w))
    bh = draw(st.integers(1, h))
    return RoiBox(draw(st.integers(0, w - bw)), draw(st.integers(0, h - bh)), bw, bh)


@st.composite
def cases(draw, strategy):
    n = draw(st.integers(1, 40))
    h = draw(st.integers(2, 14))
    w = draw(st.integers(2, 14))
    frames = volume(draw(st.integers(0, 2**32 - 1)), n, h, w, draw(st.sampled_from([0.0, 0.5, 0.9])))
    seq = FrameSequence(width=w, height=h, fps=Fraction(20), frames=frames)
    starts = sorted(draw(st.sets(st.integers(1, n + 3), max_size=4)))
    entries = []
    for _ in range(1 + len(starts)):
        if strategy == "mask" or draw(st.booleans()):
            entries.append(draw(polygons(w, h)))
        else:
            entries.append(draw(boxes(w, h)))
    return seq, RoiTrack(frames=(0, *starts), entries=tuple(entries))


# ---------------------------------------------------------------------------
# the moments pass
# ---------------------------------------------------------------------------

@SETTINGS
@given(cases("bbox"))
def test_bbox_moments_match_oracle(case):
    assert_matches_oracle(*case, "bbox", None)


@SETTINGS
@given(cases("mask"))
def test_mask_moments_match_oracle(case):
    assert_matches_oracle(*case, "mask", None)


@SETTINGS
@given(cases("skin"), st.sampled_from([0.05, 0.3, 0.9, 0.999]))
def test_skin_moments_match_oracle(case, tau):
    seq, roi = case
    first = roi.entry_for(0).bbox()
    if first.w * first.h >= 100:
        model = fit_skin_model(seq.frames[0], first, tau)
    else:
        model = SkinModel(mean=np.array([0.45, 0.3]), cov=np.array([[4e-4, 1e-4], [1e-4, 3e-4]]), tau=tau)
    assert_matches_oracle(seq, roi, "skin", model)


@SETTINGS
@given(
    st.tuples(st.integers(1, 255), st.integers(0, 255), st.integers(0, 255)),
    st.floats(0.25, 0.5),
    st.floats(0.2, 0.4),
    st.floats(0.01, 50.0),
    st.integers(-2, 2),
)
def test_pixels_on_the_mahalanobis_limit(color, mean_r, mean_g, target, nudge):
    # Scale the covariance so the color's squared distance is near ``target``,
    # then choose tau so that -2 ln(tau) lands within a few ulps of that
    # distance: the pixel sits on the boundary of the model.
    pixel = np.array(color, dtype=np.uint8).reshape(1, 1, 3)
    shape = np.array([[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]])
    unit = SkinModel(mean=np.array([mean_r, mean_g]), cov=shape, tau=0.5)
    d2_unit = float(np.einsum("...i,ij,...j->...", *_delta(pixel, unit))[0, 0])
    assume(d2_unit > 0.0)
    base = SkinModel(mean=unit.mean, cov=shape * (d2_unit / target), tau=0.5)
    d2 = float(np.einsum("...i,ij,...j->...", *_delta(pixel, base))[0, 0])
    tau = math.exp(-d2 / 2.0)
    for _ in range(abs(nudge)):
        tau = math.nextafter(tau, 1.0 if nudge > 0 else 0.0)
    model = SkinModel(mean=base.mean, cov=base.cov, tau=tau)
    assert abs(model.mahalanobis_limit() - d2) <= 1e-9 * d2
    frames = np.broadcast_to(pixel, (3, 4, 5, 3)).copy()
    frames[1, 0, 0] = (color[0], min(color[1] + 1, 255), color[2])
    seq = FrameSequence(width=5, height=4, fps=Fraction(20), frames=frames)
    assert np.array_equal(_skin_select(np.moveaxis(frames[0].astype(np.float64), -1, 0), model),
                          oracle_skin_mask(frames[0], model))
    assert_matches_oracle(seq, RoiTrack(frames=(0,), entries=(RoiBox(0, 0, 5, 4),)), "skin", model)


def _delta(pixel, model):
    rgb = pixel.astype(np.float64)
    total = rgb.sum(axis=-1)
    delta = np.stack([rgb[..., 0] / total, rgb[..., 1] / total], axis=-1) - model.mean
    return delta, np.linalg.inv(model.cov), delta


def test_runs_longer_than_one_chunk():
    # A 1x1 box puts CHUNK_PIXELS frames in a chunk; cross that boundary.
    n = CHUNK_PIXELS + 5
    frames = volume(3, n, 2, 2, 0.5)
    seq = FrameSequence(width=2, height=2, fps=Fraction(20), frames=frames)
    roi = RoiTrack(frames=(0, 7), entries=(RoiBox(0, 0, 2, 2), RoiBox(1, 1, 1, 1)))
    trace = mean_rgb_trace(seq, roi, "bbox")
    want = frames[7:, 1, 1].astype(np.float64)
    assert np.array_equal(trace.pixel_counts, [4] * 7 + [1] * (n - 7))
    assert np.array_equal(trace.means[7:], want)
    assert np.array_equal(trace.correlations[7:], want[:, :, None] * want[:, None, :])
    assert np.array_equal(trace.means[:7], frames[:7].reshape(7, 4, 3).astype(np.float64).mean(axis=1))


@SETTINGS
@given(cases("bbox"), st.integers(0, 6))
# Two ROI runs of 700 and 600 frames of 8x8 px, each more than CHUNK_PIXELS pixels.
@example((FrameSequence(width=8, height=8, fps=Fraction(20), frames=volume(11, 1300, 8, 8, 0.5)),
          RoiTrack(frames=(0, 700), entries=(RoiBox(2, 2, 3, 3), RoiBox(1, 3, 4, 2)))), 2)
def test_background_trace_matches_oracle(case, margin):
    seq, roi = case
    want = []
    for i in range(seq.n_frames):
        box = roi.entry_for(i).bbox()
        x0, y0 = max(box.x - margin, 0), max(box.y - margin, 0)
        x1, y1 = min(box.x + box.w + margin, seq.width), min(box.y + box.h + margin, seq.height)
        green = seq.frames[i, :, :, 1].astype(np.float64)
        n_outside = seq.width * seq.height - (x1 - x0) * (y1 - y0)
        if n_outside <= 0:
            with pytest.raises(ValueError, match=f"no background pixels left at frame {i}:"):
                background_trace(seq, roi, margin)
            return
        want.append((green.sum() - green[y0:y1, x0:x1].sum()) / n_outside)
    assert np.array_equal(background_trace(seq, roi, margin).samples, np.array(want))


# ---------------------------------------------------------------------------
# the batched eigen kernel
# ---------------------------------------------------------------------------

def oracle_signs(vectors):
    vectors = np.array(vectors, dtype=np.float64)
    for col in range(vectors.shape[1]):
        nonzero = np.nonzero(vectors[:, col])[0]
        if nonzero.size and vectors[nonzero[0], col] < 0:
            vectors[:, col] = -vectors[:, col]
    return vectors


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from([(), (0,), (0, 2), (1,)]))
def test_batched_eigen_matches_frame_eigen(seed, n, zero_channels):
    # Zeroed channels leave eigenvectors whose leading component is zero.
    rng = np.random.default_rng(seed)
    pixel_sets = []
    for _ in range(n):
        pixels = rng.integers(0, 256, size=(int(rng.integers(3, 50)), 3)).astype(np.float64)
        pixels[:, list(zero_channels)] = 0.0
        pixels[0] += 1.0  # at least one nonzero pixel
        pixel_sets.append(pixels)
    stack = np.stack([p.T @ p / p.shape[0] for p in pixel_sets])
    lams, vectors = correlation_eigens(stack)
    for i, pixels in enumerate(pixel_sets):
        lam, vec = frame_eigen(pixels)
        assert np.array_equal(lams[i], lam)
        assert np.array_equal(vectors[i], vec)


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_vectorized_signs_match_column_loop(seed):
    rng = np.random.default_rng(seed)
    stack = rng.integers(-2, 3, size=(6, 3, 3)).astype(np.float64)
    fixed = canonical_eigenvector_signs(stack)
    for matrix, got in zip(stack, fixed):
        want = oracle_signs(matrix)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_no_positive_eigenvalue_rejected():
    from rppgbench.errors import NumericDegeneracyError

    stack = np.zeros((3, 3, 3))
    stack[0] = np.eye(3)
    with pytest.raises(NumericDegeneracyError, match="no positive eigenvalue"):
        correlation_eigens(stack)
