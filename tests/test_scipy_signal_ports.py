"""The numpy ports of ``scipy.signal.firwin`` and ``find_peaks`` against scipy itself.

The package imports nothing from ``scipy.signal`` (it costs about 47 MB and a
second per process); scipy stays a test-only oracle here. The ports must
give the same bits: equal tap bytes and equal peak indices.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks, firwin

import rppgbench
from rppgbench.hr import _find_peaks, detect_peaks
from rppgbench.signals import Signal1D, _bandpass_taps


fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
#: (lo, hi, fs): a pass band below Nyquist, its edges drawn as fractions of it.
bands = st.tuples(fraction, fraction, st.floats(0.5, 1000.0)).map(
    lambda t: (min(t[:2]) * t[2] / 2, max(t[:2]) * t[2] / 2, t[2])
)


@settings(max_examples=300, deadline=None)
@given(numtaps=st.integers(1, 200).map(lambda k: 2 * k + 1), band=bands)
@example(numtaps=127, band=(0.67, 4.0, 20.0))  # the bench bands at 20 fps
@example(numtaps=127, band=(0.5, 3.0, 20.0))
@example(numtaps=3, band=(0.67, 4.0, 20.0))
def test_bandpass_taps_equal_firwin_bytes(numtaps, band):
    lo, hi, fs = band
    assume(0 < lo < hi < fs / 2)
    want = firwin(numtaps, [lo, hi], pass_zero=False, window="hamming", fs=fs)
    assert _bandpass_taps(numtaps, lo, hi, fs).tobytes() == want.tobytes()


def noisy_sine(seed: int, n: int, cycles: float, noise: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sin(2 * np.pi * cycles * np.arange(n) / n) + noise * rng.normal(size=n)


signals = st.one_of(
    # few levels: long plateaus and many equal heights
    st.lists(st.integers(0, 4), min_size=3, max_size=300).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=3, max_size=300).map(np.array),
    st.builds(noisy_sine, st.integers(0, 2**32 - 1), st.integers(3, 2000), st.floats(0.5, 60.0),
              st.sampled_from([0.0, 0.01, 0.3])),
    # a sine rounded to a few levels: plateaus on every crest, all crests tied
    st.builds(noisy_sine, st.integers(0, 2**32 - 1), st.integers(3, 2000), st.floats(0.5, 60.0),
              st.just(0.0)).map(lambda x: np.round(4 * x)),
)


@settings(max_examples=400, deadline=None)
@given(
    x=signals,
    distance=st.one_of(st.just(1.0), st.floats(1.0, 100.0)),
    prominence=st.one_of(st.none(), st.floats(0.0, 5.0)),
)
def test_find_peaks_equals_scipy(x, distance, prominence):
    want = find_peaks(x, distance=distance, prominence=prominence)[0]
    got = _find_peaks(x, distance, prominence)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_detect_peaks_on_a_bvp_equals_scipy():
    fs = 64.0
    x = noisy_sine(5, 3840, 72.0, 0.05)  # 60 s at 72 bpm
    want = find_peaks(x, distance=0.3 * fs, prominence=0.5 * x.std())[0]
    assert np.array_equal(detect_peaks(Signal1D(x, fs)), want)


def test_package_does_not_import_scipy_signal():
    code = "import sys, rppgbench.cli, rppgbench.bench; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    src = str(Path(rppgbench.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"
