"""Skin model, polygon rasterization, and trace extraction."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rppgbench.errors import DataError
from rppgbench.io import FrameSequence, RoiBox, RoiPolygon, RoiTrack
from rppgbench.roi import (
    RgbTrace,
    SkinModel,
    _skin_select,
    fit_skin_model,
    lower_face_mask,
    mean_rgb_trace,
)
from rppgbench.synth import SynthConfig, generate

SKIN = np.array([180, 120, 100], dtype=np.uint8)


def skin_mask(frame, model):
    """The skin selection of a (h, w, 3) frame, as the moments pass makes it."""
    return _skin_select(np.moveaxis(np.asarray(frame, dtype=np.float64), -1, 0), model)


def uniform_frame(color, h=40, w=40):
    return np.broadcast_to(np.asarray(color, dtype=np.uint8), (h, w, 3)).copy()


def chromaticity(color):
    r, g, b = (float(c) for c in color)
    total = r + g + b
    return np.array([r / total, g / total])


# ---------------------------------------------------------------------------
# skin model fitting
# ---------------------------------------------------------------------------


def test_fit_on_uniform_roi_is_regularized_at_true_mean():
    frame = uniform_frame(SKIN)
    model = fit_skin_model(frame, RoiBox(0, 0, 40, 40), tau=0.3)
    assert model.regularized
    assert model.mean == pytest.approx(chromaticity(SKIN), abs=1e-12)
    assert model.cov == pytest.approx(1e-6 * np.eye(2), abs=1e-9)


def test_fit_uses_central_seed_patch_only():
    # Outer ring green, central quarter-area patch skin-colored: the model
    # must learn the center tone.
    frame = uniform_frame((30, 200, 30))
    frame[10:30, 10:30] = SKIN
    model = fit_skin_model(frame, RoiBox(0, 0, 40, 40), tau=0.3)
    assert model.mean == pytest.approx(chromaticity(SKIN), abs=1e-12)


def test_fit_rejects_small_roi():
    frame = uniform_frame(SKIN)
    with pytest.raises(ValueError, match="100"):
        fit_skin_model(frame, RoiBox(0, 0, 9, 9), tau=0.3)


def test_fit_on_off_frame_roi_is_a_data_error_without_warnings():
    frame = uniform_frame(SKIN, h=64, w=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=re.escape("ROI RoiBox(x=100, y=100, w=20, h=20) lies outside the 64x64 frame")):
            fit_skin_model(frame, RoiBox(100, 100, 20, 20), tau=0.3)


def test_model_validation():
    with pytest.raises(ValueError):
        SkinModel(mean=np.zeros(2), cov=np.eye(2), tau=0.0)
    with pytest.raises(ValueError):
        SkinModel(mean=np.zeros(2), cov=np.eye(2), tau=1.0)
    with pytest.raises(ValueError):
        SkinModel(mean=np.zeros(3), cov=np.eye(2), tau=0.3)


# ---------------------------------------------------------------------------
# skin classification
# ---------------------------------------------------------------------------


def test_mask_keeps_model_mean_for_any_tau():
    frame = uniform_frame(SKIN)
    for tau in (0.05, 0.3, 0.9, 0.999):
        model = fit_skin_model(frame, RoiBox(0, 0, 40, 40), tau=tau)
        assert skin_mask(frame, model).all()


def test_mask_boundary_distance_is_kept():
    model = SkinModel(mean=np.array([0.4, 0.35]), cov=0.001 * np.eye(2), tau=0.3)
    limit = model.mahalanobis_limit()
    # Walk in chromaticity space: r shifted exactly to the boundary.
    delta_r = np.sqrt(limit * 0.001)
    r, g = 0.4 + delta_r, 0.35
    b = 1.0 - r - g
    # Intensity-free construction: chromaticity only depends on ratios.
    pixel = np.array([[[r, g, b]]]) * 200.0
    assert skin_mask(pixel, model)[0, 0]
    beyond = np.array([[[r + 1e-3, g, b - 1e-3]]]) * 200.0
    assert not skin_mask(beyond, model)[0, 0]


def test_mask_monotone_in_tau():
    rng = np.random.default_rng(13)
    frame = rng.integers(0, 256, size=(30, 30, 3), dtype=np.uint8)
    seed_frame = uniform_frame(SKIN)
    lo = fit_skin_model(seed_frame, RoiBox(0, 0, 40, 40), tau=0.1)
    hi = fit_skin_model(seed_frame, RoiBox(0, 0, 40, 40), tau=0.6)
    mask_lo = skin_mask(frame, lo)
    mask_hi = skin_mask(frame, hi)
    assert np.all(mask_hi <= mask_lo)  # tighter tau keeps a subset


def test_classifier_on_synthetic_frames():
    config = SynthConfig(duration_s=2.0, noise_sd=0.0, seed=5)
    result = generate(config)
    frame = result.sequence.frames[0]
    x, y, w, h = config.skin_rect
    model = fit_skin_model(frame, RoiBox(x, y, w, h), tau=0.3)
    mask = skin_mask(frame, model)
    skin_hits = mask[y:y + h, x:x + w].mean()
    assert skin_hits >= 0.99
    background = mask.copy()
    background[y:y + h, x:x + w] = False
    n_background = mask.size - w * h
    assert background.sum() / n_background < 0.01


def test_classifier_keep_rate_on_noisy_pixels_is_one_minus_tau():
    # For pixels drawn from the fitted Gaussian itself, d^2 is chi^2 with two
    # degrees of freedom, so the peak-normalized likelihood rule keeps a
    # fraction of exactly 1 - tau in expectation.
    config = SynthConfig(duration_s=2.0, noise_sd=1.0, seed=5)
    result = generate(config)
    frame = result.sequence.frames[0]
    x, y, w, h = config.skin_rect
    tau = 0.3
    model = fit_skin_model(frame, RoiBox(x, y, w, h), tau=tau)
    kept = skin_mask(frame, model)[y:y + h, x:x + w].mean()
    assert kept == pytest.approx(1.0 - tau, abs=0.06)


def test_zero_intensity_pixels_map_to_achromatic_point():
    model = SkinModel(mean=np.array([1 / 3, 1 / 3]), cov=1e-4 * np.eye(2), tau=0.5)
    black = np.zeros((2, 2, 3), dtype=np.uint8)
    assert skin_mask(black, model).all()


# ---------------------------------------------------------------------------
# polygon rasterization
# ---------------------------------------------------------------------------


def test_square_of_side_ten_covers_hundred_pixels():
    square = [(2, 3), (12, 3), (12, 13), (2, 13)]
    mask = lower_face_mask(RoiPolygon(square), 20, 20)
    assert int(mask.sum()) == 100
    assert mask[3:13, 2:12].all()


def test_polygon_needs_four_points():
    with pytest.raises(ValueError, match="4"):
        lower_face_mask(RoiPolygon([(0, 0), (5, 0), (5, 5)]), 10, 10)


def test_self_intersecting_polygon_rejected():
    bowtie = [(0, 0), (10, 10), (10, 0), (0, 10)]
    with pytest.raises(ValueError, match="simple"):
        lower_face_mask(RoiPolygon(bowtie), 20, 20)


def test_synth_roi_polygon_equals_skin_rect():
    config = SynthConfig(duration_s=1.0)
    result = generate(config)
    entry = result.roi.entry_for(0)
    mask = lower_face_mask(entry, config.width, config.height)
    x, y, w, h = config.skin_rect
    want = np.zeros((config.height, config.width), dtype=bool)
    want[y:y + h, x:x + w] = True
    assert np.array_equal(mask, want)


def test_edge_centers_count_as_inside():
    # Half-integer vertices put pixel centers exactly on the boundary.
    square = [(0.5, 0.5), (4.5, 0.5), (4.5, 4.5), (0.5, 4.5)]
    mask = lower_face_mask(RoiPolygon(square), 8, 8)
    assert mask[0, 0] and mask[4, 4] and mask[0, 4] and mask[4, 0]
    assert int(mask.sum()) == 25


# ---------------------------------------------------------------------------
# trace extraction
# ---------------------------------------------------------------------------


def constant_sequence(color, n=5, w=24, h=24):
    frames = np.broadcast_to(
        np.asarray(color, dtype=np.uint8), (n, h, w, 3)
    ).copy()
    return FrameSequence(width=w, height=h, fps=Fraction(20), frames=frames)


def test_constant_sequence_all_strategies_agree():
    seq = constant_sequence(SKIN)
    box_track = RoiTrack(frames=(0,), entries=(RoiBox(2, 2, 20, 20),))
    poly = RoiPolygon(((2, 2), (22, 2), (22, 22), (2, 22)))
    poly_track = RoiTrack(frames=(0,), entries=(poly,))
    model = fit_skin_model(seq.frames[0], RoiBox(2, 2, 20, 20), tau=0.3)

    t_bbox = mean_rgb_trace(seq, box_track, "bbox")
    t_skin = mean_rgb_trace(seq, box_track, "skin", model)
    t_mask = mean_rgb_trace(seq, poly_track, "mask")
    want = np.tile(SKIN.astype(float), (5, 1))
    for trace in (t_bbox, t_skin, t_mask):
        assert trace.means == pytest.approx(want, abs=1e-12)
        assert trace.fallback_frames == ()
    assert t_bbox.pixel_counts[0] == 400
    assert t_mask.pixel_counts[0] == 400


def test_trace_invariant_to_pixel_ordering():
    rng = np.random.default_rng(19)
    frame = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    shuffled = frame.reshape(-1, 3).copy()
    rng.shuffle(shuffled, axis=0)
    shuffled = shuffled.reshape(16, 16, 3)
    track = RoiTrack(frames=(0,), entries=(RoiBox(0, 0, 16, 16),))

    def one(frame):
        seq = FrameSequence(width=16, height=16, fps=Fraction(20),
                            frames=frame[None])
        return mean_rgb_trace(seq, track, "bbox").means[0]

    assert one(frame) == pytest.approx(one(shuffled), abs=1e-12)


def test_skin_strategy_matches_ground_truth_rect_oracle():
    # Noise-free bundle geometry: the ROI is the skin rectangle itself, so
    # the skin strategy must agree with averaging exactly those pixels.
    config = SynthConfig(duration_s=5.0, noise_sd=0.0, seed=2)
    result = generate(config)
    seq = result.sequence
    x, y, w, h = config.skin_rect
    model = fit_skin_model(seq.frames[0], result.roi.entry_for(0), tau=0.3)
    trace = mean_rgb_trace(seq, result.roi, "skin", model)
    oracle = seq.frames[:, y:y + h, x:x + w, :].reshape(seq.n_frames, -1, 3).mean(axis=1)
    assert np.max(np.abs(trace.means - oracle)) <= 0.5


def test_skin_strategy_rejects_background_ring():
    # Noisy frames, ROI padded well beyond the skin patch: the classifier has
    # a genuine covariance to work with and must keep the trace on the skin
    # tone instead of averaging in the gray ring.
    config = SynthConfig(duration_s=5.0, noise_sd=2.0, seed=2)
    result = generate(config)
    seq = result.sequence
    x, y, w, h = config.skin_rect
    pad = 8
    box = RoiBox(x - pad, y - pad, w + 2 * pad, h + 2 * pad)
    track = RoiTrack(frames=(0,), entries=(box,))
    model = fit_skin_model(seq.frames[0], box, tau=0.3)
    trace = mean_rgb_trace(seq, track, "skin", model)
    oracle = seq.frames[:, y:y + h, x:x + w, :].reshape(seq.n_frames, -1, 3).mean(axis=1)
    assert np.max(np.abs(trace.means - oracle)) <= 1.0
    # a plain box average over the padded ROI would sit far off the skin tone
    assert abs(mean_rgb_trace(seq, track, "bbox").means[0, 0] - oracle[0, 0]) > 10.0


def test_empty_skin_mask_falls_back_to_full_box():
    seq = constant_sequence((40, 80, 200))  # blue-ish, far from the model
    track = RoiTrack(frames=(0,), entries=(RoiBox(2, 2, 20, 20),))
    model = SkinModel(mean=np.array([0.62, 0.28]), cov=1e-6 * np.eye(2), tau=0.9)
    trace = mean_rgb_trace(seq, track, "skin", model)
    assert trace.fallback_frames == (0, 1, 2, 3, 4)
    assert trace.fallback_fraction == 1.0
    assert trace.pixel_counts[0] == 400  # full box used
    assert trace.means[0] == pytest.approx([40.0, 80.0, 200.0], abs=1e-12)


def test_skin_strategy_requires_model():
    seq = constant_sequence(SKIN)
    track = RoiTrack(frames=(0,), entries=(RoiBox(2, 2, 20, 20),))
    with pytest.raises(ValueError, match="SkinModel"):
        mean_rgb_trace(seq, track, "skin")


def test_mask_strategy_requires_landmarks():
    seq = constant_sequence(SKIN)
    track = RoiTrack(frames=(0,), entries=(RoiBox(2, 2, 20, 20),))
    with pytest.raises(ValueError, match="landmark"):
        mean_rgb_trace(seq, track, "mask")


def test_roi_exceeding_frame_bounds_rejected():
    seq = constant_sequence(SKIN)
    track = RoiTrack(frames=(0,), entries=(RoiBox(10, 10, 20, 20),))
    with pytest.raises(ValueError, match="frame 0"):
        mean_rgb_trace(seq, track, "bbox")


def test_track_starting_late_rejected():
    seq = constant_sequence(SKIN)
    with pytest.raises(ValueError, match="cover"):
        track = RoiTrack(frames=(3,), entries=(RoiBox(0, 0, 4, 4),))
        mean_rgb_trace(seq, track, "bbox")


def test_unknown_strategy_rejected():
    seq = constant_sequence(SKIN)
    track = RoiTrack(frames=(0,), entries=(RoiBox(0, 0, 4, 4),))
    with pytest.raises(ValueError, match="strategy"):
        mean_rgb_trace(seq, track, "landmarks")


def test_rgb_trace_validation():
    corr = np.zeros((3, 3, 3))
    with pytest.raises(ValueError):
        RgbTrace(means=np.zeros((3, 3)) - 1.0, correlations=corr, fs=20.0, pixel_counts=np.ones(3))
    with pytest.raises(ValueError):
        RgbTrace(means=np.zeros((3, 3)), correlations=corr, fs=20.0, pixel_counts=np.zeros(3))
    with pytest.raises(ValueError, match=r"\(n_frames, 3, 3\)"):
        RgbTrace(means=np.zeros((3, 3)), correlations=np.zeros((3, 3)), fs=20.0, pixel_counts=np.ones(3))
    with pytest.raises(ValueError, match="correlations must be finite"):
        RgbTrace(means=np.zeros((3, 3)), correlations=corr + np.nan, fs=20.0, pixel_counts=np.ones(3))
    with pytest.raises(ValueError, match="frame rate"):
        RgbTrace(means=np.zeros((3, 3)), correlations=corr, fs=0.0, pixel_counts=np.ones(3))
    trace = RgbTrace(
        means=np.full((4, 3), 9.0), correlations=np.full((4, 3, 3), 81.0), fs=20.0, pixel_counts=np.ones(4)
    )
    assert len(trace) == 4
    assert trace.means[:, 1] == pytest.approx(np.full(4, 9.0))
    with pytest.raises(ValueError):
        trace.correlations[0, 0, 0] = 0.0
