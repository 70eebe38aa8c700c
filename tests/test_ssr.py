"""Subspace-rotation extractor: eigen-decomposition against a Jacobi oracle,
batched windows against the per-window loop, degeneracy handling, and the
invariances the pulse output must satisfy."""

import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rppgbench.errors import DataError, DegenerateSubspaceError, NumericDegeneracyError
from rppgbench.hr import estimate_hr_spectral
from rppgbench.roi import RgbTrace, mean_rgb_trace
from rppgbench.signals import BandHz, PulseSignal, hann_overlap_add, window_length, window_starts
from rppgbench.synth import SynthConfig, generate
from rppgbench.ssr import (
    SsrParams,
    canonical_eigenvector_signs,
    frame_eigen,
    ssr_pulse,
    trace_eigens,
)


# ---------------------------------------------------------------------------
# oracle: cyclic Jacobi rotations, no library eigensolver involved
# ---------------------------------------------------------------------------

def jacobi_eigh(matrix, max_sweeps=60, tol=1e-14):
    """Diagonalise a small symmetric matrix by explicit plane rotations."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    lam = np.diag(a).copy()
    order = np.argsort(lam)[::-1]
    return lam[order], v[:, order]


def correlation(pixels):
    pixels = np.asarray(pixels, dtype=np.float64)
    return pixels.T @ pixels / pixels.shape[0]


def trace_of(pixel_sets, fs, fallback_frames=()):
    """The RgbTrace of per-frame pixel sets: one C = V'V / N per frame."""
    return RgbTrace(
        means=np.stack([np.mean(p, axis=0) for p in pixel_sets]),
        correlations=np.stack([correlation(p) for p in pixel_sets]),
        fs=fs,
        pixel_counts=[len(p) for p in pixel_sets],
        fallback_frames=fallback_frames,
    )


def random_pixels(rng, n=100):
    return rng.uniform(0.0, 255.0, size=(n, 3))


# ---------------------------------------------------------------------------
# frame_eigen
# ---------------------------------------------------------------------------

def test_uniform_color_is_rank_one():
    c = 120.0
    pixels = np.full((50, 3), c)
    lam, vec = frame_eigen(pixels)
    assert lam == pytest.approx([3 * c * c, 0.0, 0.0], abs=1e-9 * 3 * c * c)
    u1 = vec[:, 0]
    assert u1 == pytest.approx(np.full(3, 1 / math.sqrt(3)), abs=1e-12)


def test_isotropic_pixels_have_equal_eigenvalues():
    a = 30.0
    pixels = a * np.eye(3)  # one pure-channel pixel each
    lam, vec = frame_eigen(pixels)
    assert lam == pytest.approx(np.full(3, a * a / 3), rel=1e-12)
    assert vec.T @ vec == pytest.approx(np.eye(3), abs=1e-12)


def test_frame_eigen_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        pixels = random_pixels(rng)
        corr = correlation(pixels)
        lam, v = frame_eigen(pixels)
        lam_o, vec_o = jacobi_eigh(corr)
        scale = lam_o[0]
        assert lam == pytest.approx(lam_o, abs=1e-9 * scale)
        assert lam[0] >= lam[1] >= lam[2] >= 0
        # Basis-independent checks: orthonormality and exact reconstruction.
        assert v.T @ v == pytest.approx(np.eye(3), abs=1e-12)
        recon = v @ np.diag(lam) @ v.T
        assert recon == pytest.approx(corr, abs=1e-9 * scale)
        # Where the spectrum is well separated the vectors must align too.
        gaps = np.diff(lam_o[::-1]) / scale
        for col in range(3):
            near = (col > 0 and gaps[2 - col] < 1e-6) or (col < 2 and gaps[1 - col] < 1e-6)
            if not near:
                assert abs(v[:, col] @ vec_o[:, col]) == pytest.approx(1.0, abs=1e-9)


def test_all_zero_pixels_rejected():
    with pytest.raises(NumericDegeneracyError):
        frame_eigen(np.zeros((10, 3)))


def test_pixel_shape_validation():
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        frame_eigen(np.ones((10, 2)))
    with pytest.raises(ValueError, match="at least 3"):
        frame_eigen(np.ones((2, 3)))


def test_sign_canonicalisation_flips_negative_leads():
    vectors = np.array([
        [0.0, -3.0, 0.0],
        [-2.0, 1.0, 0.0],
        [5.0, 2.0, 0.0],
    ])
    fixed = canonical_eigenvector_signs(vectors)
    assert np.array_equal(fixed[:, 0], [0.0, 2.0, -5.0])
    assert np.array_equal(fixed[:, 1], [3.0, -1.0, -2.0])
    assert np.array_equal(fixed[:, 2], [0.0, 0.0, 0.0])


def test_frame_eigen_is_deterministic():
    rng = np.random.default_rng(7)
    pixels = random_pixels(rng)
    a = frame_eigen(pixels)
    b = frame_eigen(pixels.copy())
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_frame_eigen_result_is_read_only():
    lam, vec = frame_eigen(random_pixels(np.random.default_rng(0)))
    with pytest.raises(ValueError):
        lam[0] = 0.0
    with pytest.raises(ValueError):
        vec[0, 0] = 0.0


# ---------------------------------------------------------------------------
# ssr_pulse
# ---------------------------------------------------------------------------

def make_frames(rng, n_frames, pulse=None, n_pixels=120):
    """Skin-toned pixel clouds; optional per-frame green modulation."""
    base = np.array([140.0, 110.0, 90.0])
    frames = []
    for i in range(n_frames):
        pix = base + rng.normal(0.0, 4.0, size=(n_pixels, 3))
        if pulse is not None:
            pix[:, 1] += pulse[i]
        frames.append(pix)
    return frames


def test_identical_frames_give_flat_pulse():
    rng = np.random.default_rng(11)
    frame = make_frames(rng, 1)[0]
    pulse = ssr_pulse(trace_of([frame] * 40, 20.0), SsrParams(window_l=20))
    assert len(pulse) == 40
    assert pulse.fs == 20.0
    assert np.abs(pulse.samples).max() <= 1e-9


def test_rank_one_frames_raise_degenerate_subspace():
    frames = [np.full((10, 3), 100.0 + i) for i in range(20)]
    with pytest.raises(DegenerateSubspaceError, match="degenerate"):
        ssr_pulse(trace_of(frames, 10.0), SsrParams(window_l=10))


def test_pixel_order_invariance():
    rng = np.random.default_rng(13)
    frames = make_frames(rng, 30)
    shuffled = []
    perm_rng = np.random.default_rng(99)
    for f in frames:
        shuffled.append(f[perm_rng.permutation(len(f))])
    a = ssr_pulse(trace_of(frames, 10.0), SsrParams(window_l=10))
    b = ssr_pulse(trace_of(shuffled, 10.0), SsrParams(window_l=10))
    scale = max(1.0, np.abs(a.samples).max())
    assert b.samples == pytest.approx(a.samples, abs=1e-9 * scale)


def test_global_intensity_scale_invariance():
    rng = np.random.default_rng(17)
    t = np.arange(60) / 20.0
    frames = make_frames(rng, 60, pulse=1.5 * np.sin(2 * np.pi * 1.2 * t))
    a = ssr_pulse(trace_of(frames, 20.0))
    b = ssr_pulse(trace_of([0.4 * f for f in frames], 20.0))
    scale = max(1.0, np.abs(a.samples).max())
    assert b.samples == pytest.approx(a.samples, abs=1e-9 * scale)


def test_output_length_covers_awkward_frame_counts():
    rng = np.random.default_rng(19)
    frames = make_frames(rng, 53, n_pixels=40)
    pulse = ssr_pulse(trace_of(frames, 20.0), SsrParams(window_l=20))
    assert len(pulse) == 53
    assert pulse.samples.mean() == pytest.approx(0.0, abs=1e-9)


def test_recovers_modulation_frequency():
    rng = np.random.default_rng(23)
    fps = 20.0
    t = np.arange(600) / fps
    frames = make_frames(rng, 600, pulse=2.0 * np.sin(2 * np.pi * 1.2 * t))
    pulse = ssr_pulse(trace_of(frames, fps))
    est = estimate_hr_spectral(pulse, BandHz(0.67, 4.0))
    assert est.bpm == pytest.approx(72.0, abs=0.6)


def test_noise_free_frames_are_degenerate(clean_sequence):
    # Without spatial noise every frame is a single color: the minor
    # eigenvalues vanish and there is no subspace to track rotation against.
    seq, _, roi, _ = clean_sequence
    with pytest.raises(DegenerateSubspaceError):
        ssr_pulse(mean_rgb_trace(seq, roi, "bbox"))


def test_end_to_end_on_synthetic_sequence():
    seq, _, roi, gt = generate(SynthConfig(duration_s=30.0, seed=3))
    pulse = ssr_pulse(mean_rgb_trace(seq, roi, "bbox"))
    est = estimate_hr_spectral(pulse, BandHz(0.67, 4.0))
    assert est.bpm == pytest.approx(gt.bpm, abs=0.6)


def test_fallback_fraction_passthrough():
    rng = np.random.default_rng(29)
    frames = make_frames(rng, 20)
    pulse = ssr_pulse(trace_of(frames, 10.0, fallback_frames=(0, 4, 9, 13, 17)), SsrParams(window_l=10))
    assert pulse.fallback_fraction == 0.25
    assert pulse.fs == 10.0


def test_input_validation():
    rng = np.random.default_rng(31)
    frames = make_frames(rng, 12)
    with pytest.raises(ValueError, match="even"):
        ssr_pulse(trace_of(frames, 10.0), SsrParams(window_l=5))
    with pytest.raises(DataError, match="exceeds"):
        ssr_pulse(trace_of(frames, 10.0), SsrParams(window_l=20))
    with pytest.raises(DataError, match="at least 2 frames"):
        ssr_pulse(trace_of(frames[:1], 10.0))
    # The pixel count is checked before anything else, even the eigensolver.
    few = frames[:5] + [np.zeros((2, 3))] + frames[6:]
    with pytest.raises(DataError, match="need at least 3 pixels, got 2"):
        ssr_pulse(trace_of(few, 10.0))


def test_params_validation():
    with pytest.raises(ValueError, match="window_l"):
        SsrParams(window_l=1)
    with pytest.raises(ValueError, match="skin_tau"):
        SsrParams(skin_tau=0.0)
    with pytest.raises(ValueError, match="degeneracy_eps"):
        SsrParams(degeneracy_eps=0.0)


# ---------------------------------------------------------------------------
# oracle: SSR one window at a time (the pre-batching code)
# ---------------------------------------------------------------------------

oracle_log = logging.getLogger("ssr_window_loop")


def ssr_window_loop(trace, params=SsrParams(), eigens=None):
    """SSR one window at a time, each anchor checked and projected on its own."""
    lams, vectors = trace_eigens(trace) if eigens is None else eigens
    n = len(lams)
    if n < 2:
        raise DataError(f"need at least 2 frames, got {n}")
    length = window_length(trace.fs if params.window_l is None else params.window_l, n)
    u1 = np.ascontiguousarray(vectors[:, :, 0])
    starts = window_starts(n, length)
    blocks = []
    offsets = []
    skipped = 0
    for start in starts:
        lam_anchor = lams[start]
        if min(lam_anchor[1], lam_anchor[2]) <= params.degeneracy_eps * lam_anchor[0]:
            skipped += 1
            continue
        u2a = vectors[start][:, 1]
        u3a = vectors[start][:, 2]
        lam_t = lams[start:start + length]
        u1_t = u1[start:start + length]
        s1 = np.sqrt(lam_t[:, 0] / lam_anchor[1]) * (u1_t @ u2a)
        s2 = np.sqrt(lam_t[:, 0] / lam_anchor[2]) * (u1_t @ u3a)
        sr = s1[:, None] * u2a[None, :] + s2[:, None] * u3a[None, :]  # (length, 3)
        sd1 = sr[:, 0].std()
        sd2 = sr[:, 1].std()
        pulse = sr[:, 0] - (sd1 / sd2) * sr[:, 1] if sd2 > 0 else sr[:, 0]
        blocks.append(pulse - pulse.mean())
        offsets.append(start)
    if not blocks:
        raise DegenerateSubspaceError(f"all {len(starts)} windows have a degenerate anchor subspace")
    if skipped:
        oracle_log.warning("skipped %d/%d degenerate windows", skipped, len(starts))
    assembled = hann_overlap_add(blocks, trace.fs, offsets=offsets).samples
    out = np.zeros(n)
    out[:assembled.size] = assembled
    out -= out.mean()
    return PulseSignal(out, trace.fs, trace.fallback_fraction)


@st.composite
def ssr_cases(draw, rank_one=st.sampled_from(["none", "some", "all"])):
    """A trace of small random pixel clouds, some frames a single color, and SSR parameters."""
    fs = draw(st.floats(15.0, 30.0))
    n = draw(st.integers(2, 1300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.uniform(60.0, 200.0, 3)
    pixels = np.clip(base + rng.normal(0.0, draw(st.floats(0.5, 8.0)), (n, 8, 3)), 0.0, 255.0)
    kind = draw(rank_one)
    flat = rng.random(n) < (draw(st.floats(0.0, 1.0)) if kind == "some" else float(kind == "all"))
    # A frame whose pixels all share one color has a rank-1 correlation matrix.
    pixels[flat] = pixels[flat].mean(axis=1, keepdims=True)
    trace = RgbTrace(
        means=pixels.mean(axis=1),
        correlations=np.einsum("npi,npj->nij", pixels, pixels) / pixels.shape[1],
        fs=fs,
        pixel_counts=np.full(n, pixels.shape[1]),
    )
    params = SsrParams(
        window_l=draw(st.none() | st.integers(1, 30).map(lambda k: 2 * k)),
        degeneracy_eps=draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-5, 1e-4])),
    )
    return trace, params


def ssr_outcome(extract, trace, params, eigens, caplog, logger):
    """The pulse samples or the exception's type and message, and the warnings ``logger`` logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=logger):
        try:
            result = extract(trace, params, eigens).samples
        except (DataError, NumericDegeneracyError) as exc:
            result = type(exc), str(exc)
    return result, [r.getMessage() for r in caplog.records if r.name == logger]


def assert_ssr_same_outcome(trace, params, caplog, eigens=None):
    batched, batched_log = ssr_outcome(ssr_pulse, trace, params, eigens, caplog, "rppgbench.ssr")
    looped, looped_log = ssr_outcome(ssr_window_loop, trace, params, eigens, caplog, oracle_log.name)
    assert batched_log == looped_log
    if isinstance(looped, tuple):
        assert batched == looped
    else:
        assert isinstance(batched, np.ndarray) and np.array_equal(batched, looped)
        assert batched.tobytes() == looped.tobytes()  # down to the sign of each zero


ORACLE = settings(max_examples=80, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@ORACLE
@given(case=ssr_cases())
def test_batched_windows_equal_the_window_loop(case, caplog):
    trace, params = case
    assert_ssr_same_outcome(trace, params, caplog)


@ORACLE
@given(case=ssr_cases(rank_one=st.just("all")))
def test_rank_one_anchors_raise_like_the_window_loop(case, caplog):
    trace, params = case
    assert_ssr_same_outcome(trace, params, caplog)


def test_anchor_exactly_at_the_bound_is_skipped_like_the_window_loop(caplog):
    rng = np.random.default_rng(41)
    trace = trace_of(make_frames(rng, 40), 20.0)
    lams, vectors = trace_eigens(trace)
    lams = lams.copy()
    lams[10] = [2.0, 1e-6, 0.5]  # min(lam2, lam3) == degeneracy_eps * lam1
    params = SsrParams(window_l=20, degeneracy_eps=5e-7)
    assert_ssr_same_outcome(trace, params, caplog, eigens=(lams, vectors))
    assert caplog.records[-1].getMessage() == "skipped 1/3 degenerate windows"
