"""Heart-rate estimation: spectral peak picking and beat-interval counting."""

import numpy as np
import pytest

from rppgbench.errors import InsufficientPeaksError, NumericDegeneracyError
from rppgbench.hr import (
    HrEstimate,
    detect_peaks,
    estimate_hr_spectral,
    hr_from_peaks,
)
from rppgbench.signals import BandHz, Signal1D

WIDE = BandHz(40.0 / 60.0, 4.0)


def tone(bpm, fs=20.0, duration=60.0, amp=1.0):
    t = np.arange(int(round(duration * fs))) / fs
    return Signal1D(amp * np.sin(2 * np.pi * (bpm / 60.0) * t), fs)


# ---------------------------------------------------------------------------
# spectral estimator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bpm", [40.0, 72.0, 150.0, 239.0])
def test_pure_tone_recovered_within_one_bin(bpm):
    est = estimate_hr_spectral(tone(bpm), WIDE)
    assert est.method == "spectral"
    assert est.resolution_bpm <= 0.125
    assert abs(est.bpm - bpm) <= est.resolution_bpm


def test_amplitude_does_not_move_the_peak():
    small = estimate_hr_spectral(tone(84.0, amp=1e-3), WIDE)
    large = estimate_hr_spectral(tone(84.0, amp=1e3), WIDE)
    assert small.bpm == large.bpm


def test_stronger_of_two_tones_wins():
    t = np.arange(1200) / 20.0
    mix = 2.0 * np.sin(2 * np.pi * 1.5 * t) + np.sin(2 * np.pi * 2.5 * t)
    est = estimate_hr_spectral(Signal1D(mix, 20.0), WIDE)
    assert est.bpm == pytest.approx(90.0, abs=est.resolution_bpm)


def test_out_of_band_tone_is_ignored():
    t = np.arange(1200) / 20.0
    mix = 5.0 * np.sin(2 * np.pi * 5.0 * t) + 0.2 * np.sin(2 * np.pi * 1.2 * t)
    est = estimate_hr_spectral(Signal1D(mix, 20.0), BandHz(0.67, 4.0))
    # Sidelobes of the 25x-stronger tone may push the winner one bin; the
    # point is that 300 bpm itself never wins inside the band.
    assert est.bpm == pytest.approx(72.0, abs=2 * est.resolution_bpm)


def test_flat_spectrum_is_flagged_low_confidence():
    samples = np.zeros(200)
    samples[0] = 1.0  # impulse: near-constant power across the band
    est = estimate_hr_spectral(Signal1D(samples, 20.0), WIDE)
    assert est.low_confidence

    confident = estimate_hr_spectral(tone(72.0), WIDE)
    assert not confident.low_confidence


@pytest.mark.parametrize("value", [0.0, 3.5])
def test_pulse_without_in_band_power_is_numeric_degeneracy(value):
    # Every bin ties at zero; the all-zero pulse once read 40.43 bpm, the band's lowest bin.
    with pytest.raises(NumericDegeneracyError, match=r"the pulse has no power in the band \[0\.6"):
        estimate_hr_spectral(Signal1D(np.full(200, value), 20.0), WIDE)


def test_band_clamped_to_nyquist():
    # 250 bpm sits above the 240 bpm Nyquist limit at 8 Hz sampling; the
    # clamp leaves a usable [0.67, 4.0] window and the in-band tone wins.
    t = np.arange(160) / 8.0
    est = estimate_hr_spectral(Signal1D(np.sin(2 * np.pi * 1.0 * t), 8.0), BandHz(0.67, 30.0))
    assert est.band.hi == pytest.approx(4.0)
    assert est.bpm == pytest.approx(60.0, abs=est.resolution_bpm)


def test_band_empty_after_clamp_rejected():
    with pytest.raises(ValueError, match="empty after clamping"):
        estimate_hr_spectral(tone(72.0, fs=20.0), BandHz(12.0, 15.0))


def test_short_signal_rejected():
    with pytest.raises(ValueError, match="at least 2 s"):
        estimate_hr_spectral(tone(72.0, duration=1.5), WIDE)


def test_resolution_reported_exactly():
    est = estimate_hr_spectral(tone(72.0), WIDE)
    # 1200 samples -> 8x padding -> 16384-point transform at 20 Hz.
    assert est.resolution_bpm == 60.0 * 20.0 / 16384


def test_estimate_fields_validated():
    with pytest.raises(ValueError, match="method"):
        HrEstimate(bpm=60.0, method="guess")
    with pytest.raises(ValueError, match="bpm"):
        HrEstimate(bpm=-5.0, method="spectral")
    assert HrEstimate(bpm=72.5, method="synthetic").band is None
    with pytest.raises(ValueError, match="bpm"):
        HrEstimate(bpm=float("nan"), method="synthetic")


# ---------------------------------------------------------------------------
# peak detection and interval-based rate
# ---------------------------------------------------------------------------

def test_detect_peaks_on_clean_sine():
    fs = 256.0
    t = np.arange(int(10 * fs)) / fs
    peaks = detect_peaks(Signal1D(np.sin(2 * np.pi * 1.0 * t), fs), min_dist_s=0.25)
    assert len(peaks) == 10
    assert np.diff(peaks) == pytest.approx(np.full(9, 256.0), abs=1.0)


def test_detect_peaks_constant_signal_has_none():
    peaks = detect_peaks(Signal1D(np.full(100, 3.5), 20.0))
    assert peaks.size == 0


def test_detect_peaks_spacing_keeps_the_taller():
    x = np.zeros(1000)
    x[299:302] = [1.0, 2.0, 1.0]
    x[309:312] = [0.5, 1.0, 0.5]
    peaks = detect_peaks(Signal1D(x, 100.0), min_dist_s=0.2)
    assert peaks.tolist() == [300]


def test_detect_peaks_prominence_floor():
    rng = np.random.default_rng(5)
    x = 0.05 * rng.normal(size=2000)
    fs = 100.0
    t = np.arange(2000) / fs
    x += np.sin(2 * np.pi * 1.0 * t)
    peaks = detect_peaks(Signal1D(x, fs), min_dist_s=0.5, min_prominence_sd=0.5)
    assert len(peaks) == 20  # one per cycle, ripples rejected


def test_detect_peaks_validation():
    s = Signal1D(np.sin(np.arange(100)), 10.0)
    with pytest.raises(ValueError, match="non-negative"):
        detect_peaks(s, min_dist_s=-0.1)
    # NaN floors: nan <= prominence keeps no peak, and max(1.0, nan) reads as a 1-sample spacing.
    for floors in ({"min_dist_s": float("nan")}, {"min_prominence_sd": float("nan")}):
        with pytest.raises(ValueError, match="non-negative"):
            detect_peaks(s, **floors)
    with pytest.raises(ValueError, match="at least 3"):
        detect_peaks(Signal1D(np.array([1.0, 2.0]), 10.0))


def test_hr_from_peaks_even_spacing():
    assert hr_from_peaks(np.arange(0, 2560, 256), 256.0).bpm == 60.0
    est = hr_from_peaks(np.array([0, 200, 400, 600]), 240.0)
    assert est.bpm == 72.0
    assert est.method == "peaks"
    assert est.band is None and est.resolution_bpm is None


def test_hr_from_peaks_uses_mean_interval():
    # Jittered beats: only first, last, and count matter.
    assert hr_from_peaks(np.array([0, 190, 410, 600]), 240.0).bpm == 72.0


def test_hr_from_peaks_validation():
    with pytest.raises(InsufficientPeaksError):
        hr_from_peaks(np.array([42]), 100.0)
    with pytest.raises(ValueError, match="increasing"):
        hr_from_peaks(np.array([0, 100, 100]), 100.0)
    with pytest.raises(ValueError, match="sampling rate"):
        hr_from_peaks(np.array([0, 100]), 0.0)
    with pytest.raises(ValueError, match="1-D"):
        hr_from_peaks(np.array([[0, 100]]), 100.0)


def test_peak_rate_roundtrip_on_sine():
    fs = 256.0
    t = np.arange(int(12 * fs)) / fs
    s = Signal1D(np.sin(2 * np.pi * 1.25 * t), fs)
    est = hr_from_peaks(detect_peaks(s, min_dist_s=0.4), fs)
    assert est.bpm == pytest.approx(75.0, abs=1.0)


def test_spectral_and_peak_routes_agree_on_clean_pulse():
    fs = 256.0
    t = np.arange(int(20 * fs)) / fs
    s = Signal1D(np.sin(2 * np.pi * 1.1 * t), fs)
    spectral = estimate_hr_spectral(s, WIDE)
    peaks = hr_from_peaks(detect_peaks(s, min_dist_s=0.4), fs)
    assert abs(spectral.bpm - peaks.bpm) <= 1.0
