"""Skin model, polygon rasterization, and trace extraction."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rppgbench.errors import DataError
from rppgbench.io import FrameSequence, RoiBox, RoiPolygon, RoiTrack
from rppgbench.roi import (
    RgbTrace,
    SkinModel,
    _check_simple_polygon,
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
    for cov in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.5], [0.4, 1.0]], 1e-310 * np.eye(2)):
        # singular, indefinite, asymmetric, an inverse that overflows
        with pytest.raises(ValueError, match="symmetric positive definite"):
            SkinModel(mean=np.zeros(2), cov=np.array(cov), tau=0.3)


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
    mask = lower_face_mask(RoiPolygon(square))
    assert mask.shape == (10, 10)
    assert int(mask.sum()) == 100


def test_polygon_needs_four_points():
    with pytest.raises(ValueError, match="4"):
        lower_face_mask(RoiPolygon([(0, 0), (5, 0), (5, 5)]))


def test_self_intersecting_polygon_rejected():
    bowtie = [(0, 0), (10, 10), (10, 0), (0, 10)]
    with pytest.raises(ValueError, match="simple"):
        lower_face_mask(RoiPolygon(bowtie))


def test_synth_roi_polygon_equals_skin_rect():
    config = SynthConfig(duration_s=1.0)
    result = generate(config)
    entry = result.roi.entry_for(0)
    mask = lower_face_mask(entry)
    assert entry.bbox() == RoiBox(*config.skin_rect)
    assert mask.shape == (config.skin_rect[3], config.skin_rect[2]) and mask.all()


def test_edge_centers_count_as_inside():
    # Half-integer vertices put pixel centers exactly on the boundary.
    square = [(0.5, 0.5), (4.5, 0.5), (4.5, 4.5), (0.5, 4.5)]
    mask = lower_face_mask(RoiPolygon(square))
    assert mask.shape == (5, 5)
    assert mask[0, 0] and mask[4, 4] and mask[0, 4] and mask[4, 0]
    assert int(mask.sum()) == 25


# The frame-sized rasteriser and the pairwise simple-polygon check that
# ``lower_face_mask`` and ``_check_simple_polygon`` replaced, kept as oracles:
# the box mask must equal this mask cropped to the polygon's box, and the
# vectorized check must give the same verdict.


def segments_properly_intersect_reference(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    for d, a, b, c in ((d1, p3, p4, p1), (d2, p3, p4, p2), (d3, p1, p2, p3), (d4, p1, p2, p4)):
        if d == 0 and on_segment(a, b, c):
            return True
    return False


def is_simple_reference(points) -> bool:
    k = len(points)
    for i in range(k):
        a1 = points[i]
        a2 = points[(i + 1) % k]
        for j in range(i + 1, k):
            # Skip edges sharing a vertex (consecutive, or first/last pair).
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue
            b1 = points[j]
            b2 = points[(j + 1) % k]
            if segments_properly_intersect_reference(a1, a2, b1, b2):
                return False
    return True


def frame_mask_reference(points, frame_width, frame_height) -> np.ndarray:
    cx = np.arange(frame_width) + 0.5
    cy = np.arange(frame_height) + 0.5
    gx, gy = np.meshgrid(cx, cy)
    inside = np.zeros((frame_height, frame_width), dtype=bool)
    on_edge = np.zeros_like(inside)
    k = len(points)
    for i in range(k):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % k]
        crosses = (y1 > gy) != (y2 > gy)
        if np.any(crosses):
            x_int = x1 + (gy - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (gx < x_int)
        ex, ey = x2 - x1, y2 - y1
        seg_len2 = ex * ex + ey * ey
        if seg_len2 == 0:
            continue
        t = ((gx - x1) * ex + (gy - y1) * ey) / seg_len2
        t = np.clip(t, 0.0, 1.0)
        dist2 = (gx - (x1 + t * ex)) ** 2 + (gy - (y1 + t * ey)) ** 2
        on_edge |= dist2 <= 1e-18
    return inside | on_edge


def _snapped(draw, points):
    """The points as drawn, or snapped to the half-integer or the integer grid."""
    step = draw(st.sampled_from([None, 0.5, 1.0]))
    return points if step is None else [(round(x / step) * step, round(y / step) * step) for x, y in points]


def _edited(draw, points):
    """The points, sometimes with one vertex repeated (next to itself or elsewhere)
    or with an edge's midpoint inserted as a collinear vertex."""
    edit = draw(st.sampled_from(["none", "repeat-next", "repeat-elsewhere", "midpoint"]))
    i = draw(st.integers(0, len(points) - 1))
    points = list(points)
    if edit == "repeat-next":
        points.insert(i, points[i])
    elif edit == "repeat-elsewhere":
        points.insert(draw(st.integers(0, len(points))), points[i])
    elif edit == "midpoint":
        (x1, y1), (x2, y2) = points[i], points[(i + 1) % len(points)]
        points.insert(i + 1, ((x1 + x2) / 2, (y1 + y2) / 2))
    return points


@st.composite
def star_polygons(draw):
    """Mostly simple polygons: 4-10 vertices at increasing angles around a centre, inside [0, 40]^2."""
    k = draw(st.integers(4, 10))
    cx, cy = draw(st.floats(9.0, 31.0)), draw(st.floats(9.0, 31.0))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), min_size=k, max_size=k)))
    radii = draw(st.lists(st.floats(0.2, 8.5), min_size=k, max_size=k))
    points = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]
    return _edited(draw, _snapped(draw, points))


@st.composite
def any_polygons(draw):
    """4-9 vertices anywhere in [0, 12]^2: crossings, touches, collinear runs and repeats are common."""
    coord = st.integers(0, 24).map(lambda v: v / 2) | st.floats(0.0, 12.0)
    points = draw(st.lists(st.tuples(coord, coord), min_size=4, max_size=9))
    return _edited(draw, _snapped(draw, points))


#: A 68-landmark ellipse, the size of a face tracker's outline, and the same
#: snapped to the half-integer grid so that many pixel centers lie on edges.
ELLIPSE_68 = [(30.0 + 25.3 * math.cos(2 * math.pi * i / 68), 25.0 + 18.7 * math.sin(2 * math.pi * i / 68))
              for i in range(68)]
ELLIPSE_68_SNAPPED = [(round(2 * x) / 2, round(2 * y) / 2) for x, y in ELLIPSE_68]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(points=star_polygons())
@example(points=ELLIPSE_68)
@example(points=ELLIPSE_68_SNAPPED)
@example(points=[(0.5, 0.5), (4.5, 0.5), (4.5, 4.5), (0.5, 4.5)])
@example(points=[(2.0, 3.0), (12.0, 3.0), (12.0, 3.0), (12.0, 13.0), (2.0, 13.0)])
@example(points=[(1.25, 1.0), (9.5, 2.75), (7.0, 8.5), (4.0, 5.0), (2.5, 9.0)])
def test_box_mask_equals_the_cropped_frame_mask(points):
    polygon = RoiPolygon(points)
    box = polygon.bbox()
    if not is_simple_reference(polygon.points):
        with pytest.raises(DataError, match="simple"):
            lower_face_mask(polygon)
        return
    frame = frame_mask_reference(polygon.points, box.x + box.w + 2, box.y + box.h + 2)
    cropped = frame[box.y:box.y + box.h, box.x:box.x + box.w]
    assert np.array_equal(lower_face_mask(polygon), cropped)
    assert int(cropped.sum()) == int(frame.sum())


@settings(max_examples=400, deadline=None)
@given(points=any_polygons() | star_polygons())
@example(points=[(0.0, 0.0), (10.0, 10.0), (10.0, 0.0), (0.0, 10.0)])  # bowtie
@example(points=[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 0.0), (0.0, 4.0)])  # a vertex on a far edge
@example(points=[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (5.0, 2.0)])  # the closing edge crosses
@example(points=[(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])  # a repeated vertex
@example(points=[(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])  # a collinear vertex
def test_simple_polygon_verdict_equals_the_pairwise_check(points):
    points = RoiPolygon(points).points
    if is_simple_reference(points):
        _check_simple_polygon(points)
    else:
        with pytest.raises(DataError, match="simple"):
            _check_simple_polygon(points)


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
