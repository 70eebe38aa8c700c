"""Chrominance pulse extraction: projections, windowing, end-to-end HR."""

import numpy as np
import pytest

from rppgbench.chrom import ChromParams, chrom_pulse, window_starts
from rppgbench.errors import NumericDegeneracyError
from rppgbench.hr import estimate_hr_spectral
from rppgbench.roi import RgbTrace, mean_rgb_trace
from rppgbench.signals import BandHz


def trace_from_means(means, fs=20.0, fallback_frames=()):
    """The trace of frames whose pixels all share their frame's mean color."""
    means = np.asarray(means, dtype=np.float64)
    return RgbTrace(
        means=means,
        correlations=means[:, :, None] * means[:, None, :],
        fs=fs,
        pixel_counts=np.full(means.shape[0], 100),
        fallback_frames=fallback_frames,
    )


def synthetic_trace(hr_bpm=72.0, fs=20.0, duration_s=30.0, base=(180.0, 120.0, 100.0),
                    amp=(0.5, 1.0, 0.5)):
    t = np.arange(int(duration_s * fs)) / fs
    pulse = np.sin(2 * np.pi * (hr_bpm / 60.0) * t)
    means = np.asarray(base) + np.outer(pulse, np.asarray(amp))
    return trace_from_means(means, fs)


def test_constant_trace_gives_zero_pulse():
    trace = trace_from_means(np.tile([180.0, 120.0, 100.0], (120, 1)))
    pulse = chrom_pulse(trace)
    assert np.max(np.abs(pulse.samples)) <= 1e-9
    assert len(pulse) == 120
    assert pulse.method == "chrom"


def test_scale_invariance():
    # Small base values leave headroom for large scale factors within the
    # [0, 255] range an RgbTrace permits.
    trace = synthetic_trace(base=(1.8, 1.2, 1.0), amp=(0.005, 0.01, 0.005))
    base = chrom_pulse(trace).samples
    for c in (0.25, 3.0, 117.0):
        scaled = chrom_pulse(trace_from_means(c * trace.means)).samples
        ref = np.max(np.abs(base)) or 1.0
        assert np.max(np.abs(scaled - base)) <= 1e-9 * ref


def test_end_to_end_72_bpm():
    trace = synthetic_trace(hr_bpm=72.0, duration_s=30.0)
    pulse = chrom_pulse(trace)
    estimate = estimate_hr_spectral(pulse, BandHz(0.67, 4.0))
    assert estimate.bpm == pytest.approx(72.0, abs=0.6)


def test_end_to_end_on_generated_sequence(clean_sequence):
    trace = mean_rgb_trace(clean_sequence.sequence, clean_sequence.roi, "bbox")
    pulse = chrom_pulse(trace)
    estimate = estimate_hr_spectral(pulse, BandHz(0.67, 4.0))
    assert estimate.bpm == pytest.approx(72.0, abs=0.6)


def test_zero_channel_mean_raises_named_window():
    means = np.tile([180.0, 120.0, 100.0], (64, 1))
    means[32:, 1] = 0.0  # green dead for the entire final analysis window
    with pytest.raises(NumericDegeneracyError, match="window 2"):
        chrom_pulse(trace_from_means(means))


def test_pulse_has_zero_mean_and_full_length():
    trace = synthetic_trace(duration_s=9.7)  # odd length, forces anchored tail
    pulse = chrom_pulse(trace)
    assert len(pulse) == len(trace)
    rms = np.sqrt(np.mean(pulse.samples ** 2))
    assert abs(pulse.samples.mean()) <= 1e-9 * rms


def test_window_starts_cover_everything():
    starts = window_starts(100, 32)
    assert starts[0] == 0
    covered = set()
    for s in starts:
        covered.update(range(s, s + 32))
    assert covered == set(range(100))
    # interior hops are regular, the tail is anchored
    assert starts[:-1] == list(range(0, 100 - 32 + 1, 16))
    assert starts[-1] == 100 - 32


def test_window_starts_exact_fit_has_no_extra_tail():
    starts = window_starts(96, 32)
    assert starts == [0, 16, 32, 48, 64]


def test_window_longer_than_trace_rejected():
    trace = synthetic_trace(duration_s=1.0)  # 20 frames
    with pytest.raises(ValueError, match="exceeds"):
        chrom_pulse(trace, ChromParams(window_s=2.0))


def test_window_below_eight_frames_rejected():
    trace = synthetic_trace(duration_s=10.0)
    with pytest.raises(ValueError, match="8"):
        chrom_pulse(trace, ChromParams(window_s=0.2))


def test_params_validation():
    with pytest.raises(ValueError):
        ChromParams(window_s=0.0)
    with pytest.raises(ValueError):
        ChromParams(skin_tau=1.5)


def test_fallback_fraction_carried_from_trace():
    means = np.tile([180.0, 120.0, 100.0], (64, 1))
    t = np.arange(64) / 20.0
    means[:, 1] += np.sin(2 * np.pi * 1.2 * t)
    pulse = chrom_pulse(trace_from_means(means, fallback_frames=(3, 4)))
    assert pulse.fallback_fraction == pytest.approx(2 / 64)
