"""Property tests: the chunked moments pass and the batched eigen kernel
against per-frame oracles, bit for bit.

The oracles below are the per-frame definitions: select each frame's pixels
on its own (skin test, polygon raster, full-box fallback), then
average them and form ``V'V``. Every comparison is exact equality.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rppgbench import roi as roi_module
from rppgbench.errors import DataError, FormatError
from rppgbench.io import BLOCK_BYTES, RoiBox, RoiPolygon, RoiTrack, read_rvid, write_rvid
from rppgbench.licvpr import background_trace
from rppgbench.roi import (
    CHUNK_PIXELS,
    COV_RIDGE,
    STRATEGIES,
    TABLE_COLOURS,
    SkinModel,
    _skin_select,
    _SkinTable,
    fit_skin_model,
    iter_roi_pixels,
    lower_face_mask,
    mean_rgb_trace,
    pixel_features,
)
from rppgbench.ssr import canonical_eigenvector_signs, correlation_eigens, frame_eigen

from conftest import entry_at, read_frames, rvid_sequence

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# per-frame oracles
# ---------------------------------------------------------------------------

def oracle_d2(sub, model):
    rgb = sub.astype(np.float64)
    total = rgb.sum(axis=-1)
    safe = np.where(total > 0, total, 1.0)
    r = np.where(total > 0, rgb[..., 0] / safe, 1.0 / 3.0)
    g = np.where(total > 0, rgb[..., 1] / safe, 1.0 / 3.0)
    dr, dg = r - model.mean[0], g - model.mean[1]
    q = np.linalg.inv(model.cov)
    # delta' Q delta as its four products in row order, the order the package
    # defines; einsum may add them in another, a last-place digit apart.
    return dr * q[0, 0] * dr + dr * q[0, 1] * dg + dg * q[1, 0] * dr + dg * q[1, 1] * dg


def oracle_skin_mask(sub, model):
    return oracle_d2(sub, model) <= -2.0 * math.log(model.tau)


def oracle_frames(seq, roi, strategy, model):
    """(pixels, fallback) per frame, selected one frame at a time."""
    out = []
    frames = read_frames(seq)
    for i in range(seq.n_frames):
        entry = entry_at(roi, i)
        box = entry.bbox()
        frame = frames[i]
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


def oracle_background(seq, roi, margin):
    """Per frame, the mean green value outside the ROI box grown by ``margin`` px, or None when nothing is left."""
    frames = read_frames(seq)
    out = []
    for i in range(seq.n_frames):
        box = entry_at(roi, i).bbox()
        x0, y0 = max(box.x - margin, 0), max(box.y - margin, 0)
        x1, y1 = min(box.x + box.w + margin, seq.width), min(box.y + box.h + margin, seq.height)
        green = frames[i, :, :, 1].astype(np.float64)
        n_outside = seq.width * seq.height - (x1 - x0) * (y1 - y0)
        out.append((green.sum() - green[y0:y1, x0:x1].sum()) / n_outside if n_outside > 0 else None)
    return out


def assert_matches_oracle(seq, roi, strategy, model):
    expected = oracle_frames(seq, roi, strategy, model)
    assert_trace_matches(mean_rgb_trace(seq, roi, strategy, model), expected)
    for (pixels, fallback), (want, want_fb) in zip(iter_roi_pixels(seq, roi, strategy, model), expected):
        assert fallback == want_fb
        assert np.array_equal(pixels, want)


def assert_trace_matches(trace, expected, correlations=True):
    """``trace`` holds the oracle's counts, fallback frames and means, bit for bit, and its correlations
    when ``correlations``, else none."""
    counts = np.array([p.shape[0] for p, _ in expected])
    assert trace.pixel_counts.tobytes() == counts.astype(np.int64).tobytes()
    assert trace.fallback_frames == tuple(i for i, (_, fb) in enumerate(expected) if fb)
    means = np.stack([p.mean(axis=0) for p, _ in expected])
    assert trace.means.tobytes() == means.tobytes()
    if correlations:
        assert trace.correlations.tobytes() == np.stack([p.T @ p / p.shape[0] for p, _ in expected]).tobytes()
    else:
        assert trace.correlations is None


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
    """Convex polygons inside the frame; sometimes a sliver over one or more pixels that holds no pixel center."""
    if draw(st.booleans()):
        x = draw(st.integers(0, w - 1))
        y = draw(st.integers(0, h - 1))
        x1 = x + draw(st.integers(0, w - 1 - x)) + 0.4
        return RoiPolygon(((x + 0.1, y + 0.1), (x1, y + 0.1), (x1, y + 0.4), (x + 0.1, y + 0.4)))
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
    seq = rvid_sequence(frames)
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


@st.composite
def skin_gaussians(draw):
    """(mean, cov) of a drawn chromaticity Gaussian.

    The mean is any chromaticity; the covariance has a scale from 1e-6 to
    1e-1, unequal spreads and any correlation, or is a rank-one matrix
    plus the ridge that ``fit_skin_model`` adds to a degenerate fit.
    """
    r = draw(st.floats(0.0, 1.0))
    mean = np.array([r, draw(st.floats(0.0, 1.0 - r))])
    scale = 10.0 ** draw(st.floats(-6.0, -1.0))
    a, b = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    if draw(st.booleans()):
        return mean, scale * np.outer((a, b), (a, b)) + COV_RIDGE * np.eye(2)
    off = draw(st.floats(-0.99, 0.99)) * a * b * scale
    return mean, np.array([[a * a * scale, off], [off, b * b * scale]])


def tau_on_limit(d2):
    """A tau whose limit -2 ln(tau), as the model and the oracle compute it, is ``d2`` exactly; else None."""
    below = above = math.exp(-d2 / 2.0)
    for _ in range(16):
        for tau in (below, above):
            if 0.0 < tau < 1.0 and SkinModel(np.zeros(2), np.eye(2), tau).mahalanobis_limit() == d2 == -2.0 * math.log(tau):
                return tau
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
    return None


@SETTINGS
@given(cases("skin"), st.lists(st.integers(0, 2**16), min_size=1, max_size=3), st.none() | skin_gaussians())
def test_skin_moments_match_oracle(case, picks, gaussian):
    # Each tau puts a drawn pixel exactly on its limit: a d^2 summed in
    # another order than the oracle's could move that pixel across. One pass
    # serves every tau from one d^2, and must match the oracle for each.
    seq, roi = case
    first = entry_at(roi, 0).bbox()
    frames = read_frames(seq)
    if gaussian is not None:
        model = SkinModel(mean=gaussian[0], cov=gaussian[1], tau=0.5)
    elif first.w * first.h >= 100:
        model = fit_skin_model(frames[0], first, 0.5)
    else:
        model = SkinModel(mean=np.array([0.45, 0.3]), cov=np.array([[4e-4, 1e-4], [1e-4, 3e-4]]), tau=0.5)
    d2 = np.unique(np.concatenate([oracle_d2(frames[i, b.y:b.y + b.h, b.x:b.x + b.w], model).ravel()
                                   for i in range(seq.n_frames) for b in [entry_at(roi, i).bbox()]]))
    d2 = d2[(d2 >= 1.0) & (d2 <= 1000.0)]  # -2 ln(tau) hits almost every such value exactly
    assume(d2.size)
    taus = []
    for pick in picks:
        tau = next((t for k in range(d2.size) if (t := tau_on_limit(float(d2[(pick + k) % d2.size])))), None)
        assume(tau is not None)
        taus.append(tau)
    taus = list(dict.fromkeys(taus))
    outcomes = pixel_features(seq, roi, [("corr", "skin", tau) for tau in taus], model)
    for tau in taus:
        tuned = SkinModel(mean=model.mean, cov=model.cov, tau=tau)
        assert_trace_matches(outcomes[("corr", "skin", tau)], oracle_frames(seq, roi, "skin", tuned))
        assert_matches_oracle(seq, roi, "skin", tuned)


#: Blocks of 64 frames of 32x32 px, read as two chunks of a 16x16 box; two ROI runs.
LONG_CASE = (rvid_sequence(volume(7, 300, 32, 32, 0.6)),
             RoiTrack(frames=(0, 130), entries=(RoiPolygon(((4, 4), (20, 4), (20, 20), (4, 20))),
                                                RoiPolygon(((8, 6), (26, 9), (22, 28), (6, 24))))))


@SETTINGS
@given(cases("bbox"), st.lists(st.sampled_from([0.05, 0.3, 0.9]), min_size=1, max_size=3, unique=True),
       st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
@example(LONG_CASE, [0.3, 0.2], [2, 5])
@example(LONG_CASE, [0.05, 0.9], [0, 20])
def test_one_pass_equals_the_one_feature_passes(case, taus, margins):
    # Boxes fail the mask, small boxes the skin fit and wide margins the
    # background: each fails alone, as its own pass fails.
    seq, roi = case
    keys = [("corr", "bbox", None), ("corr", "mask", None), *(("corr", "skin", tau) for tau in taus),
            *(("background", margin) for margin in margins)]
    outcomes = pixel_features(seq, roi, keys)
    for key in keys:
        try:
            if key[0] == "background":
                want = background_trace(seq, roi, key[1])
            elif key[1] == "skin":
                want = mean_rgb_trace(seq, roi, "skin", fit_skin_model(read_frames(seq, 0, 1)[0], entry_at(roi, 0), key[2]))
            else:
                want = mean_rgb_trace(seq, roi, key[1])
        except DataError as exc:
            assert (type(outcomes[key]), str(outcomes[key])) == (type(exc), str(exc)), key
            continue
        got = outcomes[key]
        if key[0] == "background":
            assert got.samples.tobytes() == want.samples.tobytes()
        else:
            for name in ("means", "correlations", "pixel_counts"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (key, name)
            assert got.fallback_frames == want.fallback_frames


@SETTINGS
@given(st.sampled_from(STRATEGIES).flatmap(lambda strategy: st.tuples(st.just(strategy), cases(strategy))),
       st.sets(st.sampled_from(["rgb", "corr"]), min_size=1), st.sampled_from([0.05, 0.3, 0.9]),
       st.none() | skin_gaussians())
@example(("mask", LONG_CASE), {"rgb", "corr"}, 0.3, None)
@example(("skin", LONG_CASE), {"rgb", "corr"}, 0.3, None)
def test_each_kind_of_trace_matches_oracle(drawn, kinds, tau, gaussian):
    # Frames hold black pixels; small polygons and tight or distant skin
    # models leave selections empty. "rgb" computes no 3x3 products and
    # "corr" adds them, and a plan of both equals the two one-key passes.
    strategy, (seq, roi) = drawn
    model = None
    if strategy == "skin":
        mean, cov = gaussian if gaussian is not None else (np.array([0.45, 0.3]), np.array([[4e-4, 1e-4], [1e-4, 3e-4]]))
        model = SkinModel(mean=mean, cov=cov, tau=tau)
    keys = [(kind, strategy, tau if strategy == "skin" else None) for kind in sorted(kinds)]
    outcomes = pixel_features(seq, roi, keys, model)
    expected = oracle_frames(seq, roi, strategy, model)
    for key in keys:
        assert_trace_matches(outcomes[key], expected, correlations=key[0] == "corr")
        assert_same_outcome(outcomes[key], pixel_features(seq, roi, [key], model)[key], key)


def assert_same_outcome(got, want, key):
    """Two outcomes of one key: the same failure type and message, or byte-equal features."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), key
    elif key[0] == "background":
        assert got.samples.tobytes() == want.samples.tobytes(), key
    else:
        for name in ("means", "correlations", "pixel_counts"):
            assert _bytes(getattr(got, name)) == _bytes(getattr(want, name)), (key, name)
        assert got.fallback_frames == want.fallback_frames, key


def _bytes(array):
    return None if array is None else array.tobytes()


@st.composite
def straying_entries(draw, w, h):
    """A box or a convex polygon near a ``w`` x ``h`` frame: inside it, across its edge or off it."""
    cx, cy = draw(st.floats(-4.0, w + 4.0)), draw(st.floats(-4.0, h + 4.0))
    rx, ry = draw(st.floats(1.0, w / 2 + 2)), draw(st.floats(1.0, h / 2 + 2))
    if draw(st.booleans()):
        return RoiBox(math.floor(cx - rx), math.floor(cy - ry), math.ceil(2 * rx), math.ceil(2 * ry))
    k = draw(st.integers(4, 8))
    angles = draw(st.floats(0.0, 2 * math.pi)) + 2 * math.pi * np.arange(k) / k
    return RoiPolygon(tuple((cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in angles))


@st.composite
def straying_tracks(draw):
    """A sequence, and a track of one to three ROI runs that may leave the frame."""
    n = draw(st.integers(1, 12))
    h, w = draw(st.integers(10, 20)), draw(st.integers(10, 20))
    seq = rvid_sequence(volume(draw(st.integers(0, 2**32 - 1)), n, h, w, 0.6))
    starts = sorted(draw(st.sets(st.integers(1, n + 1), max_size=2)))
    entries = tuple(draw(straying_entries(w, h)) for _ in range(1 + len(starts)))
    return seq, RoiTrack(frames=(0, *starts), entries=entries)


#: Every pixel feature a plan may name: margin 30 grows any box past these frames.
ALL_KEYS = (("rgb", "bbox", None), ("rgb", "mask", None), ("rgb", "skin", 0.3), ("rgb", "skin", 0.2),
            ("corr", "mask", None), ("corr", "skin", 0.3), ("background", 0), ("background", 3), ("background", 30))


@SETTINGS
@given(straying_tracks(), st.lists(st.sampled_from(ALL_KEYS), min_size=1, unique=True))
def test_each_feature_of_a_plan_fails_or_succeeds_as_alone(case, keys):
    seq, roi = case
    outcomes = pixel_features(seq, roi, keys)
    assert list(outcomes) == keys
    for key in keys:
        assert_same_outcome(outcomes[key], pixel_features(seq, roi, [key])[key], key)


def test_a_plan_that_fails_throughout_reads_no_block(tmp_path):
    path = tmp_path / "video.rvid"
    write_rvid(16, 16, 20, 6, [volume(4, 6, 16, 16, 0.6)], path)
    seq = read_rvid(path)
    # Off the frame from frame 3: every selection fails there, a box fails the
    # mask from frame 0, and margin 20 covers the frame.
    roi = RoiTrack(frames=(0, 3), entries=(RoiBox(2, 2, 12, 12), RoiBox(10, 10, 12, 12)))
    keys = [("rgb", "bbox", None), ("rgb", "mask", None), ("rgb", "skin", 0.3), ("background", 20)]
    whole = pixel_features(seq, roi, keys)
    with open(path, "r+b") as fh:
        fh.truncate(seq.offset)
    outcomes = pixel_features(seq, roi, keys)
    assert all(isinstance(outcome, DataError) for outcome in outcomes.values())
    for key in keys:
        assert_same_outcome(outcomes[key], whole[key], key)
    # A feature that succeeds reads the payload, and finds it gone.
    with pytest.raises(FormatError, match="payload truncated after open"):
        pixel_features(seq, roi, [("background", 0)])


def test_iter_roi_pixels_yields_the_frames_before_a_cut(tmp_path, monkeypatch):
    path = tmp_path / "video.rvid"
    write_rvid(16, 16, 20, 8, [volume(5, 8, 16, 16, 0.6)], path)
    seq = read_rvid(path)
    roi = RoiTrack(frames=(0, 3), entries=(RoiBox(2, 2, 12, 12), RoiPolygon(((3, 3), (13, 4), (12, 13), (4, 12)))))
    model = fit_skin_model(read_frames(seq, 0, 1)[0], roi.entries[0], 0.3)
    whole = {strategy: list(iter_roi_pixels(seq, roi, strategy, model)) for strategy in ("bbox", "skin")}
    off_frame = RoiTrack(frames=(0, 3), entries=(RoiBox(2, 2, 12, 12), RoiBox(10, 10, 12, 12)))
    failing = [(roi, "mask", None), (roi, "skin", None), (off_frame, "bbox", None), (off_frame, "skin", model)]
    errors = []
    for track, strategy, fitted in failing:
        with pytest.raises((DataError, ValueError)) as want:
            mean_rgb_trace(seq, track, strategy, fitted)
        errors.append(want.value)
    k = 5
    cut = seq.offset + k * 16 * 16 * 3
    with open(path, "r+b") as fh:
        fh.truncate(cut)

    def no_pass(*args, **kwargs):
        raise AssertionError("iter_roi_pixels ran a pixel_features pass")

    monkeypatch.setattr("rppgbench.roi.pixel_features", no_pass)
    for strategy, frames in whole.items():
        pixels = iter_roi_pixels(seq, roi, strategy, model)
        for want_pixels, want_fallback in frames[:k]:
            got_pixels, got_fallback = next(pixels)
            assert got_fallback == want_fallback and np.array_equal(got_pixels, want_pixels)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: payload truncated after open") as cut_at:
            next(pixels)
        assert (cut_at.value.path, cut_at.value.offset) == (str(path), cut)
    # A failing selection raises what mean_rgb_trace raises, before the first frame and without a read.
    for (track, strategy, fitted), want in zip(failing, errors):
        with pytest.raises(type(want)) as got:
            next(iter_roi_pixels(seq, track, strategy, fitted))
        assert (type(got.value), str(got.value)) == (type(want), str(want))


@SETTINGS
@given(
    st.tuples(st.integers(1, 255), st.integers(0, 255), st.integers(0, 255)),
    st.floats(0.25, 0.5),
    st.floats(0.2, 0.4),
    st.floats(0.01, 50.0),
    st.integers(-2, 2),
)
# numpy's vectorized log and libm's log differ in the last place for this tau.
@example((1, 0, 0), 0.5, 0.25, 0.39359437042944523, 0)
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
    seq = rvid_sequence(frames)
    (mask,) = _skin_select(np.moveaxis(frames[0].astype(np.float64), -1, 0), model, [model.mahalanobis_limit()])
    assert np.array_equal(mask, oracle_skin_mask(frames[0], model))
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
    seq = rvid_sequence(frames)
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
@example((rvid_sequence(volume(11, 1300, 8, 8, 0.5)),
          RoiTrack(frames=(0, 700), entries=(RoiBox(2, 2, 3, 3), RoiBox(1, 3, 4, 2)))), 2)
def test_background_trace_matches_oracle(case, margin):
    seq, roi = case
    want = oracle_background(seq, roi, margin)
    if None in want:
        with pytest.raises(ValueError, match=f"no background pixels left at frame {want.index(None)}:"):
            background_trace(seq, roi, margin)
        return
    assert np.array_equal(background_trace(seq, roi, margin).samples, np.array(want))


def test_chunks_capped_by_the_block_size_match_the_oracles():
    # Frames of 200x160 px cap a chunk at BLOCK_BYTES // 96,000 = 2 frames, where a 4x4 box alone would put
    # CHUNK_PIXELS // 16 = 512 in it. Two ROI runs of 5 and 4 frames, each ending in a short chunk; the skin
    # selection of frame 2 is empty, so the whole box is kept there.
    frames = volume(13, 9, 160, 200, 0.6)
    frames[2, 40:44, 60:64] = (0, 0, 255)
    assert BLOCK_BYTES // frames[0].nbytes == 2 < CHUNK_PIXELS // 16
    seq = rvid_sequence(frames)
    roi = RoiTrack(frames=(0, 5), entries=(RoiPolygon(((60.2, 40.5), (63.9, 41.0), (63.0, 43.8), (60.5, 43.5))),
                                           RoiPolygon(((150, 100), (154, 100), (154, 104), (150, 104)))))
    model = SkinModel(*DEFAULT_GAUSSIAN, tau=0.3)
    keys = [(kind, strategy, 0.3 if strategy == "skin" else None) for kind in ("rgb", "corr") for strategy in STRATEGIES]
    outcomes = pixel_features(seq, roi, [*keys, ("background", 3)], model)
    for key in keys:
        assert_trace_matches(outcomes[key], oracle_frames(seq, roi, key[1], model), correlations=key[0] == "corr")
    assert outcomes[("rgb", "skin", 0.3)].fallback_frames == (2,)
    assert outcomes[("background", 3)].samples.tobytes() == np.array(oracle_background(seq, roi, 3)).tobytes()


# ---------------------------------------------------------------------------
# the skin colour table
# ---------------------------------------------------------------------------

#: Colours a test's colour ranges centre on: corners of the RGB cube, and a skin tone.
BASES = [(0, 0, 0), (255, 255, 255), (0, 255, 128), (180, 120, 100)]
DEFAULT_GAUSSIAN = (np.array([0.45, 0.3]), np.array([[4e-4, 1e-4], [1e-4, 3e-4]]))


@st.composite
def colour_blocks(draw, n, size, base):
    """uint8 pixels (n, size, 3): colours within a few values of a drawn shift of ``base``, or anywhere in the RGB
    cube, with some black (0, 0, 0) pixels or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 2)):
        centre = np.array(base) + [draw(st.integers(-8, 8)) for _ in range(3)]
        spread = draw(st.integers(0, 12))
        pixels = np.clip(centre + rng.integers(-spread, spread + 1, (n, size, 3)), 0, 255)
    else:
        pixels = rng.integers(0, 256, (n, size, 3))
    pixels[rng.random((n, size)) < draw(st.sampled_from([0.0, 0.0, 0.05]))] = 0
    return pixels.astype(np.uint8)


def block_lists(shapes, max_size):
    """Lists of up to ``max_size`` :func:`colour_blocks` around one base, shaped by ``shapes``, a strategy."""
    return st.sampled_from(BASES).flatmap(lambda base: st.lists(
        shapes.flatmap(lambda shape: colour_blocks(*shape, base)), min_size=1, max_size=max_size))


def taus_for(pixels, model, picks):
    """One tau per pick, distinct: one whose limit is the d^2 of a colour of ``pixels`` (N, 3) exactly where
    one exists, else 0.05, 0.3 or 0.9."""
    d2 = np.unique(oracle_d2(pixels, model))
    d2 = d2[(d2 >= 1.0) & (d2 <= 1000.0)]
    taus = []
    for pick in picks:
        on_limit = (tau_on_limit(float(d2[(pick + k) % d2.size])) for k in range(min(d2.size, 8)))
        taus.append(next(filter(None, on_limit), (0.05, 0.3, 0.9)[pick % 3]))
    return list(dict.fromkeys(taus))


@SETTINGS
@given(block_lists(st.tuples(st.integers(1, 8), st.integers(1, 64)), 5),
       st.lists(st.integers(0, 2**16), min_size=1, max_size=3), st.none() | skin_gaussians())
def test_skin_table_masks_equal_the_pixel_test(chunks, picks, gaussian):
    # One table reads the chunks in turn: narrow ones grow it, keeping the codes it holds, and one that would take
    # it past the cap is tested pixel by pixel. Taus put colours exactly on their limits.
    mean, cov = gaussian if gaussian is not None else DEFAULT_GAUSSIAN
    model = SkinModel(mean=mean, cov=cov, tau=0.5)
    taus = taus_for(np.concatenate([pixels.reshape(-1, 3) for pixels in chunks]), model, picks)
    limits = [replace(model, tau=tau).mahalanobis_limit() for tau in taus]
    table = _SkinTable(model, limits)
    for pixels in chunks:
        x = np.ascontiguousarray(pixels.transpose(0, 2, 1), dtype=np.float64)  # (c, 3, P), as a pass holds a chunk
        got, want = table.masks(x), _skin_select(x.transpose(1, 0, 2), model, limits)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@SETTINGS
@given(block_lists(st.tuples(st.sampled_from([8, 16, 5]), st.just(32 * 32)), 6),
       st.lists(st.integers(0, 2**16), min_size=1, max_size=3), st.none() | skin_gaussians())
def test_skin_pass_over_wide_colours_equals_the_frame_oracle(blocks, picks, gaussian):
    # Whole 32x32 frames, 8 to a chunk: runs of frames of few colours, served by the table, and of many, which
    # pass its cap, against iter_roi_pixels, which tests each frame's pixels on their own.
    frames = np.concatenate(blocks).reshape(-1, 32, 32, 3)
    seq, roi = rvid_sequence(frames), RoiTrack(frames=(0,), entries=(RoiBox(0, 0, 32, 32),))
    mean, cov = gaussian if gaussian is not None else DEFAULT_GAUSSIAN
    model = SkinModel(mean=mean, cov=cov, tau=0.5)
    taus = taus_for(frames.reshape(-1, 3), model, picks)
    outcomes = pixel_features(seq, roi, [("corr", "skin", tau) for tau in taus], model)
    for tau in taus:
        expected = list(iter_roi_pixels(seq, roi, "skin", replace(model, tau=tau)))
        assert_trace_matches(outcomes[("corr", "skin", tau)], expected)


@pytest.mark.parametrize("spread", ["uniform", "skin-tones"])
def test_a_skin_pass_evaluates_at_most_its_pixels_plus_the_table(monkeypatch, spread):
    # Uniformly random colours pass the table's cap in every chunk and are tested pixel by pixel, as with no table;
    # a table grown to hold them all would evaluate all 2**24 colours. Skin tones all come from the table.
    rng = np.random.default_rng(5)
    if spread == "uniform":
        frames = rng.integers(0, 256, (100, 64, 64, 3), dtype=np.uint8)
    else:
        frames = np.clip(rng.normal((180, 120, 100), 2.0, (100, 64, 64, 3)), 0, 255).astype(np.uint8)
    seq, roi = rvid_sequence(frames), RoiTrack(frames=(0,), entries=(RoiBox(0, 0, 64, 64),))
    evaluated = []

    def counted(planes, model, limits):
        evaluated.append(planes[0].size)
        return _skin_select(planes, model, limits)

    monkeypatch.setattr(roi_module, "_skin_select", counted)
    model = SkinModel(*DEFAULT_GAUSSIAN, tau=0.3)
    pixel_features(seq, roi, [("rgb", "skin", 0.3), ("rgb", "skin", 0.2)], model)
    assert 0 < sum(evaluated) <= (frames[..., 0].size if spread == "uniform" else 0) + TABLE_COLOURS


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
