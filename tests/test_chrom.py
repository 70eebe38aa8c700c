"""Chrominance pulse extraction: projections, windowing, end-to-end HR."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import firwin

from rppgbench.chrom import ChromParams, chrom_pulse, window_starts
from rppgbench.errors import DataError, NumericDegeneracyError
from rppgbench.hr import estimate_hr_spectral
from rppgbench.roi import RgbTrace, mean_rgb_trace
from rppgbench.signals import BandHz, PulseSignal, hann_overlap_add, window_length


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


@functools.cache
def firwin_taps(numtaps, lo, hi, fs):
    return firwin(numtaps, [lo, hi], pass_zero=False, window="hamming", fs=fs)


def chrom_window_loop(trace, params=ChromParams()):
    """CHROM one window at a time, each axis filtered on its own (the pre-batching code)."""
    n = len(trace)
    fs = trace.fs
    length = window_length(params.window_s * fs, n, minimum=8)
    numtaps = min(params.numtaps, length - 1)
    if numtaps % 2 == 0:
        numtaps -= 1
    delay = (numtaps - 1) // 2

    def bandpass(x):
        params.band.validate_for(fs)
        taps = firwin_taps(numtaps, params.band.lo, params.band.hi, fs)
        return np.convolve(np.pad(x, delay, mode="reflect"), taps, mode="valid")

    starts = window_starts(n, length)
    blocks = []
    for w_idx, start in enumerate(starts):
        window = trace.means[start:start + length]
        mu = window.mean(axis=0)
        if (mu == 0).any():
            raise NumericDegeneracyError(
                f"zero channel mean in window {w_idx} (frames {start}..{start + length - 1})"
            )
        rn = window[:, 0] / mu[0]
        gn = window[:, 1] / mu[1]
        bn = window[:, 2] / mu[2]
        x_f = bandpass(3.0 * rn - 2.0 * gn)
        y_f = bandpass(1.5 * rn + gn - 1.5 * bn)
        sy = y_f.std()
        combined = x_f - (x_f.std() / sy) * y_f if sy > 0 else x_f
        blocks.append(combined - combined.mean())
    assembled = hann_overlap_add(blocks, fs, offsets=starts).samples
    return PulseSignal(assembled - assembled.mean(), fs, trace.fallback_fraction)


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


def outcome(extract, trace, params):
    """The pulse samples, or the type and message of the exception raised."""
    try:
        return extract(trace, params).samples
    except (DataError, NumericDegeneracyError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(trace, params):
    batched = outcome(chrom_pulse, trace, params)
    looped = outcome(chrom_window_loop, trace, params)
    if isinstance(looped, tuple):
        assert batched == looped
    else:
        assert isinstance(batched, np.ndarray) and np.array_equal(batched, looped)


@st.composite
def chrom_cases(draw, dead_channel=False):
    """A random trace with its frame rate, and CHROM parameters whose band fits below Nyquist."""
    fs = draw(st.floats(15.0, 30.0))
    n = draw(st.integers(40, 1300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.uniform(1.0, 255.0, (n, 3)) if draw(st.booleans()) else (
        np.array([180.0, 120.0, 100.0]) + rng.normal(0.0, 2.0, (n, 3))
    )
    if dead_channel:
        first = draw(st.integers(0, n - 1))
        means[first:draw(st.integers(first + 1, n)), draw(st.integers(0, 2))] = 0.0
    band_lo = draw(st.floats(0.3, 2.0))
    params = ChromParams(
        window_s=draw(st.sampled_from([0.8, 1.6, 3.2]) | st.floats(0.5, 4.0)),
        band_lo=band_lo,
        band_hi=draw(st.floats(band_lo + 0.1, 7.0)),
        # Even values and values above ``length - 1`` exercise the clamp.
        numtaps=draw(st.integers(3, 160)),
    )
    return trace_from_means(means, fs), params


ORACLE = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(chrom_cases())
def test_batched_windows_equal_the_window_loop(case):
    trace, params = case
    assert_same_outcome(trace, params)


@ORACLE
@given(chrom_cases(dead_channel=True))
def test_dead_channel_raises_like_the_window_loop(case):
    trace, params = case
    assert_same_outcome(trace, params)


@ORACLE
@given(chrom_cases(), st.floats(7.5, 20.0))
def test_band_above_nyquist_raises_like_the_window_loop(case, band_hi):
    trace, params = case
    assert_same_outcome(trace, ChromParams(window_s=params.window_s, band_lo=params.band_lo, band_hi=band_hi))


@pytest.mark.parametrize("window_s, band", [(0.8, (0.67, 4.0)), (1.6, (0.5, 3.0)), (3.2, (0.67, 4.0))])
def test_search_grid_equals_the_window_loop(window_s, band):
    trace = synthetic_trace(duration_s=60.0)
    params = ChromParams(window_s=window_s, band_lo=band[0], band_hi=band[1])
    assert np.array_equal(chrom_pulse(trace, params).samples, chrom_window_loop(trace, params).samples)


def test_band_is_checked_before_the_windows():
    means = np.tile([180.0, 120.0, 100.0], (64, 1))
    means[32:, 1] = 0.0
    with pytest.raises(DataError, match="Nyquist"):
        chrom_pulse(trace_from_means(means), ChromParams(band_hi=10.0))
