"""Green-channel pipeline: background reference, segment elimination, HR."""

import logging

import numpy as np
import pytest

from rppgbench.hr import estimate_hr_spectral
from rppgbench.licvpr import (
    LiParams,
    background_trace,
    eliminate_motion_segments,
    licvpr_pulse,
)
from rppgbench.roi import RgbTrace, mean_rgb_trace
from rppgbench.signals import (
    BandHz,
    Signal1D,
    bandpass,
    detrend_smoothness_priors,
    moving_average,
)
from rppgbench.synth import SynthConfig

from conftest import synth_bundle


def gray_trace(levels, fs=20.0, fallback_frames=()):
    """The trace of one gray pixel per frame at the given levels."""
    means = np.repeat(np.asarray(levels, dtype=np.float64)[:, None], 3, axis=1)
    return RgbTrace(
        means=means,
        correlations=means[:, :, None] * means[:, None, :],
        fs=fs,
        pixel_counts=np.ones(means.shape[0], dtype=np.int64),
        fallback_frames=fallback_frames,
    )


# ---------------------------------------------------------------------------
# background trace
# ---------------------------------------------------------------------------


def test_background_is_gray_level():
    result = synth_bundle(SynthConfig(duration_s=3.0, noise_sd=1.0, seed=9))
    background = background_trace(result.sequence, result.roi, margin=10)
    assert np.all(np.abs(background.samples - 128.0) < 1.0)


def test_background_margin_too_large():
    result = synth_bundle(SynthConfig(duration_s=1.0))
    with pytest.raises(ValueError, match="background"):
        background_trace(result.sequence, result.roi, margin=64)


def test_background_tracks_drift_frequency():
    result = synth_bundle(SynthConfig(duration_s=30.0, noise_sd=0.5, illum_drift=(0.4, 5.0), seed=4))
    background = background_trace(result.sequence, result.roi, margin=10)
    x = background.samples - background.samples.mean()
    spectrum = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.size, 1 / background.fs)
    assert freqs[np.argmax(spectrum)] == pytest.approx(0.4, abs=0.05)


# ---------------------------------------------------------------------------
# motion segment elimination
# ---------------------------------------------------------------------------


def test_constant_signal_discards_nothing():
    s = Signal1D(np.full(100, 3.0), 20.0)
    out, discarded, _ = eliminate_motion_segments(s, 1.0, 95.0)
    assert discarded == ()
    assert np.array_equal(out.samples, s.samples)


def test_spike_segment_is_discarded():
    rng = np.random.default_rng(21)
    fs = 20.0
    segments = [rng.normal(0.0, 1.0, size=20) for _ in range(10)]
    segments[6] = rng.normal(0.0, 100.0, size=20)  # motion burst
    s = Signal1D(np.concatenate(segments), fs)
    out, discarded, _ = eliminate_motion_segments(s, 1.0, 90.0)
    assert discarded == (6,)
    assert len(out) == 180


def test_percentile_100_keeps_everything():
    rng = np.random.default_rng(22)
    s = Signal1D(rng.normal(size=200) * np.linspace(1, 5, 200), 20.0)
    out, discarded, _ = eliminate_motion_segments(s, 1.0, 100.0)
    assert discarded == ()
    assert np.array_equal(out.samples, s.samples)


def test_survivors_keep_their_order():
    rng = np.random.default_rng(1)
    fs = 4.0
    seg_len = 4
    segments = [rng.normal(0.0, 1.0, size=seg_len) for _ in range(12)]
    segments[2] = rng.normal(0.0, 80.0, size=seg_len)
    segments[7] = rng.normal(0.0, 80.0, size=seg_len)
    s = Signal1D(np.concatenate(segments), fs)
    out, discarded, _ = eliminate_motion_segments(s, 1.0, 80.0)
    assert set(discarded) >= {2, 7}
    survivors = [i for i in range(12) if i not in discarded]
    assert len(out) == seg_len * len(survivors)
    # Level shifts are constant per segment, so first differences inside each
    # surviving segment must match the original samples in original order.
    for pos, idx in enumerate(survivors):
        got = np.diff(out.samples[pos * seg_len:(pos + 1) * seg_len])
        want = np.diff(segments[idx])
        assert got == pytest.approx(want, abs=1e-12)


def test_rejoined_segments_are_level_matched():
    fs = 20.0
    quiet_low = np.zeros(20)
    burst = np.random.default_rng(2).normal(0, 50.0, size=20)
    quiet_high = np.full(20, 8.0)
    s = Signal1D(np.concatenate([quiet_low, burst, quiet_high]), fs)
    out, discarded, _ = eliminate_motion_segments(s, 1.0, 60.0)
    assert discarded == (1,)
    # The 8.0-level segment is shifted down onto the predecessor's tail mean.
    assert np.max(np.abs(out.samples - 0.0)) <= 1e-12


def test_shift_carries_through_the_run_after_a_gap(caplog):
    levels = [0.0, 0.0, None, 100.0, 100.0]
    noise = np.random.default_rng(3).normal(0.0, 5.0, size=10)
    s = Signal1D(np.concatenate([noise if v is None else np.full(10, v) for v in levels]), 10.0)
    with caplog.at_level(logging.INFO, logger="rppgbench.licvpr"):
        out, discarded, n_segments = eliminate_motion_segments(s, 1.0, 75.0)
    assert (discarded, n_segments) == ((2,), 5)
    # Both 100-level survivors move onto the 0 level, not only the first.
    assert np.array_equal(out.samples, np.zeros(40))
    assert caplog.messages == ["discarded 1/5 segments"]


def test_too_few_segments_rejected():
    s = Signal1D(np.ones(10), 20.0)
    with pytest.raises(ValueError, match="2 segments"):
        eliminate_motion_segments(s, 1.0, 95.0)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_equals_plain_chain_when_disabled():
    # rectify off + p=100 must reduce the pipeline to detrend -> moving
    # average -> bandpass of the raw green trace, bit for bit.
    rng = np.random.default_rng(33)
    fs = 20.0
    t = np.arange(600) / fs
    green = Signal1D(120.0 + np.sin(2 * np.pi * 1.2 * t) + 0.3 * rng.normal(size=600), fs)
    params = LiParams(rectify=False, discard_percentile=100.0)
    pulse = licvpr_pulse(gray_trace(green.samples, fs), None, params)

    chain = bandpass(
        moving_average(
            detrend_smoothness_priors(green, params.detrend_lambda), params.ma_window
        ),
        params.band,
    )
    want = chain.samples - chain.samples.mean()
    assert np.array_equal(pulse.samples, want)
    assert pulse.discarded_fraction == 0.0


def test_zero_background_constant_green_gives_zero_pulse():
    fs = 20.0
    background = Signal1D(np.zeros(400), fs)
    pulse = licvpr_pulse(gray_trace(np.full(400, 120.0), fs), background)
    assert np.max(np.abs(pulse.samples)) <= 1e-9


def test_end_to_end_72_bpm(clean_sequence):
    trace = mean_rgb_trace(clean_sequence.sequence, clean_sequence.roi, "mask")
    background = background_trace(clean_sequence.sequence, clean_sequence.roi, margin=10)
    pulse = licvpr_pulse(trace, background)
    estimate = estimate_hr_spectral(pulse, BandHz(0.67, 4.0))
    assert estimate.bpm == pytest.approx(72.0, abs=0.6)


def test_discarded_fraction_reported():
    rng = np.random.default_rng(8)
    fs = 20.0
    samples = 120.0 + rng.normal(0, 0.2, size=400)
    samples[200:220] += rng.normal(0, 40.0, size=20)  # stays inside [0, 255]
    pulse = licvpr_pulse(gray_trace(samples, fs), None, LiParams(rectify=False, discard_percentile=90.0))
    # 20 one-second segments; the interpolated 90th percentile of their SDs
    # sits below the two largest, so exactly 2/20 segments go.
    assert pulse.discarded_fraction == pytest.approx(0.1, abs=1e-12)
    assert len(pulse) == 360


def test_length_mismatch_rejected():
    b = Signal1D(np.ones(9) * 128, 20.0)
    with pytest.raises(ValueError, match="length"):
        licvpr_pulse(gray_trace(np.ones(10) * 120), b)


def test_rectify_needs_a_background():
    with pytest.raises(ValueError, match="background"):
        licvpr_pulse(gray_trace(np.full(400, 120.0)), None)


def test_fallback_fraction_carried_from_trace():
    trace = gray_trace(120.0 + np.sin(np.arange(400) / 3.0), fallback_frames=(3, 4, 5, 6))
    pulse = licvpr_pulse(trace, None, LiParams(rectify=False))
    assert pulse.fallback_fraction == pytest.approx(4 / 400)


def test_params_validation():
    with pytest.raises(ValueError):
        LiParams(discard_percentile=0.0)
    with pytest.raises(ValueError):
        LiParams(discard_percentile=101.0)
    with pytest.raises(ValueError):
        LiParams(ma_window=4)
    with pytest.raises(ValueError):
        LiParams(mu=3.0)
    with pytest.raises(ValueError):
        LiParams(segment_s=0.0)
    LiParams(discard_percentile=100.0)  # boundary is legal: discard nothing
