"""Core signal operations against brute-force oracles and pinned values."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rppgbench.errors import DataError, NumericDegeneracyError, UndefinedCorrelationError
from rppgbench.signals import (
    NLMS_EPS,
    BandHz,
    PulseSignal,
    Signal1D,
    alpha_overlap_add,
    bandpass,
    detrend_smoothness_priors,
    hann_overlap_add,
    moving_average,
    nlms_rectify,
    pearson,
    rmse,
    window_length,
)

# ---------------------------------------------------------------------------
# oracles: independent, deliberately naive reference implementations
# ---------------------------------------------------------------------------


def nlms_numpy_loop(t, r, mu, order):
    """The per-sample numpy loop that ``nlms_rectify`` ran for every order."""
    w = np.zeros(order)
    u = np.zeros(order)
    out = np.empty(t.size)
    for i in range(t.size):
        if order > 1:
            u[1:] = u[:-1]
        u[0] = r[i]
        e = t[i] - w @ u
        out[i] = e
        w += (mu * e / (NLMS_EPS + u @ u)) * u
    return out


def moving_average_loop(samples, window_len):
    """Per-index loop: mean over the centered window clipped to the edges."""
    n = len(samples)
    half = window_len // 2
    out = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        out.append(sum(samples[lo:hi]) / (hi - lo))
    return out


def detrend_dense_oracle(samples, lam):
    """Literal dense-matrix version: s - (I + lam^2 D2'D2)^-1 s."""
    n = len(samples)
    d2 = np.zeros((n - 2, n))
    for i in range(n - 2):
        d2[i, i], d2[i, i + 1], d2[i, i + 2] = 1.0, -2.0, 1.0
    smoother = np.linalg.inv(np.eye(n) + lam * lam * (d2.T @ d2))
    return samples - smoother @ samples


def hann_periodic_oracle(length):
    return np.array([0.5 - 0.5 * np.cos(2.0 * np.pi * k / length) for k in range(length)])


def overlap_add_oracle(blocks, hop):
    """Direct windowed summation, one explicit loop per block and sample."""
    length = len(blocks[0])
    window = hann_periodic_oracle(length)
    out = np.zeros(hop * (len(blocks) - 1) + length)
    for i, block in enumerate(blocks):
        for k in range(length):
            out[i * hop + k] += window[k] * block[k]
    return out


def pearson_loop(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    num = sum((a[i] - ma) * (b[i] - mb) for i in range(n))
    da = sum((a[i] - ma) ** 2 for i in range(n))
    db = sum((b[i] - mb) ** 2 for i in range(n))
    return num / (da * db) ** 0.5


def rmse_loop(a, b):
    return (sum((x - y) ** 2 for x, y in zip(a, b)) / len(a)) ** 0.5


def tone(freq, fs, duration_s, amp=1.0, phase=0.0):
    t = np.arange(int(round(duration_s * fs))) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def test_signal1d_validation():
    s = Signal1D([1.0, 2.0], 20.0)
    assert len(s) == 2
    with pytest.raises(ValueError):
        Signal1D([], 20.0)
    with pytest.raises(ValueError):
        Signal1D([1.0, np.nan], 20.0)
    with pytest.raises(ValueError):
        Signal1D([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        Signal1D([1.0, 2.0], -5.0)


def test_signal1d_samples_are_frozen():
    s = Signal1D([1.0, 2.0, 3.0], 20.0)
    with pytest.raises(ValueError):
        s.samples[0] = 9.0


def test_band_validation():
    band = BandHz(0.67, 4.0)
    band.validate_for(20.0)
    with pytest.raises(ValueError):
        BandHz(4.0, 0.67)
    with pytest.raises(ValueError):
        BandHz(0.0, 4.0)
    with pytest.raises(ValueError):
        BandHz(-1.0, 4.0)
    with pytest.raises(ValueError):
        BandHz(0.67, 4.0).validate_for(8.0)  # hi == Nyquist
    BandHz(1e-322, 4.0).validate_for(20.0)
    with pytest.raises(NumericDegeneracyError, match="band edge 1e-323 Hz underflows"):
        BandHz(1e-323, 4.0).validate_for(20.0)  # 1e-323 / 10 rounds to 0


def test_pulse_signal_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        PulseSignal(np.ones(16), 20.0)
    p = PulseSignal(np.array([1.0, -1.0, 0.5, -0.5]), 20.0)
    assert p.fallback_fraction == 0.0


def test_pulse_signal_keeps_signal_validation():
    with pytest.raises(ValueError, match="finite"):
        PulseSignal(np.array([1.0, -1.0, np.inf, 0.0]), 20.0)
    for fs in (0.0, -20.0):
        with pytest.raises(ValueError, match="sampling rate"):
            PulseSignal(np.array([1.0, -1.0]), fs)


# ---------------------------------------------------------------------------
# moving average
# ---------------------------------------------------------------------------


def test_moving_average_pinned_example():
    out = moving_average(Signal1D([1, 2, 3, 4, 5], 1.0), 3)
    assert out.samples.tolist() == [1.5, 2.0, 3.0, 4.0, 4.5]


def test_moving_average_constant_signal_exact():
    out = moving_average(Signal1D(np.full(40, 7.25), 20.0), 9)
    assert np.array_equal(out.samples, np.full(40, 7.25))


def test_moving_average_matches_loop_oracle():
    s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    out = moving_average(Signal1D(s, 1.0), 5)
    assert out.samples == pytest.approx(moving_average_loop(s, 5), abs=1e-12)

    rng = np.random.default_rng(7)
    for n, w in [(10, 3), (33, 7), (64, 1), (21, 21)]:
        samples = rng.normal(size=n)
        got = moving_average(Signal1D(samples, 20.0), w).samples
        want = moving_average_loop(samples.tolist(), w)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("window_len", [0, -3, 2, 4])
def test_moving_average_rejects_bad_window(window_len):
    with pytest.raises(ValueError):
        moving_average(Signal1D(np.arange(10.0), 20.0), window_len)


def test_moving_average_rejects_window_longer_than_signal():
    with pytest.raises(ValueError):
        moving_average(Signal1D(np.arange(5.0), 20.0), 7)


# ---------------------------------------------------------------------------
# bandpass
# ---------------------------------------------------------------------------

BAND = BandHz(0.67, 4.0)


def test_bandpass_zero_signal():
    out = bandpass(Signal1D(np.zeros(400), 20.0), BAND)
    assert np.array_equal(out.samples, np.zeros(400))
    assert len(out) == 400


def test_bandpass_passband_tone_amplitude():
    fs = 20.0
    s = Signal1D(tone(1.2, fs, 60.0), fs)
    out = bandpass(s, BAND)
    interior = out.samples[int(2 * fs):-int(2 * fs)]
    amp = np.max(np.abs(interior))
    assert abs(amp - 1.0) < 0.05


def test_bandpass_attenuates_slow_drift():
    fs = 20.0
    s = Signal1D(tone(0.05, fs, 60.0), fs)
    out = bandpass(s, BAND)
    interior = out.samples[int(2 * fs):-int(2 * fs)]
    assert np.max(np.abs(interior)) <= 0.1


def test_bandpass_is_zero_phase():
    fs = 20.0
    x = tone(1.2, fs, 60.0)
    y = bandpass(Signal1D(x, fs), BAND).samples
    xc = np.correlate(y - y.mean(), x - x.mean(), mode="full")
    lag = int(np.argmax(xc)) - (len(x) - 1)
    assert lag == 0


def test_bandpass_linearity():
    fs = 20.0
    rng = np.random.default_rng(11)
    x = rng.normal(size=600)
    y = rng.normal(size=600)
    a, b = 2.5, -0.75
    lhs = bandpass(Signal1D(a * x + b * y, fs), BAND).samples
    rhs = a * bandpass(Signal1D(x, fs), BAND).samples + b * bandpass(Signal1D(y, fs), BAND).samples
    scale = np.max(np.abs(rhs)) or 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_bandpass_rejects_band_at_nyquist():
    with pytest.raises(ValueError):
        bandpass(Signal1D(np.zeros(100), 8.0), BandHz(0.67, 4.0))


def test_bandpass_rejects_even_numtaps():
    with pytest.raises(ValueError):
        bandpass(Signal1D(np.zeros(100), 20.0), BAND, numtaps=64)


# ---------------------------------------------------------------------------
# smoothness-priors detrending
# ---------------------------------------------------------------------------


def test_detrend_lambda_zero_is_exact_zero():
    rng = np.random.default_rng(3)
    s = Signal1D(rng.normal(size=50), 20.0)
    out = detrend_smoothness_priors(s, 0.0)
    assert np.array_equal(out.samples, np.zeros(50))


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 10.0, 300.0])
def test_detrend_annihilates_affine_signals(lam):
    t = np.arange(80.0)
    s = Signal1D(3.5 * t - 12.0, 20.0)
    out = detrend_smoothness_priors(s, lam)
    assert np.max(np.abs(out.samples)) <= 1e-8 * np.max(np.abs(s.samples))


def test_detrend_matches_dense_oracle():
    rng = np.random.default_rng(17)
    s = rng.normal(size=50)
    for lam in (0.1, 1.0, 10.0, 300.0):
        got = detrend_smoothness_priors(Signal1D(s, 20.0), lam).samples
        want = detrend_dense_oracle(s, lam)
        scale = np.max(np.abs(want)) or 1.0
        assert np.max(np.abs(got - want)) <= 1e-9 * scale


@settings(max_examples=200, deadline=None)
@given(
    samples=st.integers(3, 60).flatmap(
        lambda n: st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=n, max_size=n)
    ),
    lam=st.floats(0.0, 1e3),
)
def test_detrend_matches_dense_solve(samples, lam):
    s = np.array(samples)
    n = len(s)
    d2 = np.diff(np.eye(n), 2, axis=0)  # rows [1, -2, 1]
    trend = np.linalg.solve(np.eye(n) + lam * lam * (d2.T @ d2), s)
    got = detrend_smoothness_priors(Signal1D(s, 20.0), lam).samples
    assert np.linalg.norm(got - (s - trend)) <= 1e-8 * np.linalg.norm(s)


def test_detrend_long_signal_stays_linear_cost():
    # The banded solve must handle lengths where a dense inverse would be
    # ~200M doubles; this simply has to complete quickly and finitely.
    rng = np.random.default_rng(5)
    s = Signal1D(rng.normal(size=50_000), 20.0)
    out = detrend_smoothness_priors(s, 300.0)
    assert np.all(np.isfinite(out.samples))


def test_detrend_requires_three_samples():
    with pytest.raises(ValueError):
        detrend_smoothness_priors(Signal1D([1.0, 2.0], 20.0), 1.0)


def test_detrend_rejects_negative_lambda():
    with pytest.raises(ValueError):
        detrend_smoothness_priors(Signal1D(np.arange(10.0), 20.0), -1.0)


@pytest.mark.parametrize("lam", [1e8, 6e153])  # the Cholesky fails; the band overflows
def test_unsolvable_detrend_is_numeric_degeneracy(lam):
    s = Signal1D(np.random.default_rng(4).normal(size=200), 20.0)
    with pytest.raises(NumericDegeneracyError, match=re.escape(f"detrending 200 samples with lambda={lam}: ")):
        detrend_smoothness_priors(s, lam)


@pytest.mark.parametrize("lam", [2.0**24, 4e7, 1e100])  # the Cholesky passes, but 16 lam^2 eps >= 1
def test_ill_conditioned_detrend_is_numeric_degeneracy(lam):
    s = Signal1D(np.random.default_rng(0).normal(100.0, 10.0, size=200), 20.0)
    with pytest.raises(NumericDegeneracyError, match=re.escape(f"detrending 200 samples with lambda={lam}: ")):
        detrend_smoothness_priors(s, lam)


def test_detrend_just_below_the_conditioning_limit_solves():
    s = Signal1D(np.random.default_rng(0).normal(100.0, 10.0, size=200), 20.0)
    assert np.all(np.isfinite(detrend_smoothness_priors(s, np.nextafter(2.0**24, 0.0)).samples))


# ---------------------------------------------------------------------------
# NLMS rectification
# ---------------------------------------------------------------------------


def test_nlms_zero_reference_is_identity():
    rng = np.random.default_rng(23)
    t = rng.normal(size=200)
    out = nlms_rectify(Signal1D(t, 20.0), Signal1D(np.zeros(200), 20.0))
    assert np.array_equal(out.samples, t)


def test_nlms_cancels_proportional_reference():
    fs = 20.0
    ref = tone(0.3, fs, 60.0, amp=2.0) + 3.0
    target = 0.5 * ref
    out = nlms_rectify(Signal1D(target, fs), Signal1D(ref, fs), mu=1.0, order=1).samples
    tail = slice(3 * len(out) // 4, None)
    residual = np.sqrt(np.mean(out[tail] ** 2))
    assert residual <= 0.05 * np.sqrt(np.mean(target[tail] ** 2))


def test_nlms_preserves_uncorrelated_pulse():
    fs = 20.0
    pulse = tone(1.2, fs, 60.0)
    ref = tone(0.3, fs, 60.0, amp=1.0) + 4.0
    target = pulse + 0.8 * ref
    out = nlms_rectify(Signal1D(target, fs), Signal1D(ref, fs)).samples
    spectrum = np.abs(np.fft.rfft(out - out.mean()))
    freqs = np.fft.rfftfreq(out.size, 1 / fs)
    peak_pulse = spectrum[np.argmin(np.abs(freqs - 1.2))]
    peak_ref = spectrum[np.argmin(np.abs(freqs - 0.3))]
    assert peak_pulse > peak_ref


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 1500),
    mu=st.floats(0.0, 2.0, exclude_min=True),
    scale=st.sampled_from([1e-3, 1.0, 255.0]),
    zero_reference=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_nlms_one_tap_float_loop_is_bit_equal_to_numpy_loop(n, mu, scale, zero_reference, seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(100.0, 10.0, n)
    r = np.zeros(n) if zero_reference else scale * rng.normal(1.0, 1.0, n)
    out = nlms_rectify(Signal1D(t, 20.0), Signal1D(r, 20.0), mu=mu, order=1).samples
    assert out.tobytes() == nlms_numpy_loop(t, r, mu, 1).tobytes()


def test_nlms_multi_tap_keeps_numpy_loop():
    rng = np.random.default_rng(31)
    t, r = rng.normal(size=300), rng.normal(size=300)
    out = nlms_rectify(Signal1D(t, 20.0), Signal1D(r, 20.0), mu=0.5, order=3).samples
    assert out.tobytes() == nlms_numpy_loop(t, r, 0.5, 3).tobytes()


def test_nlms_argument_validation():
    a = Signal1D(np.zeros(10) + 1.0, 20.0)
    b = Signal1D(np.ones(9), 20.0)
    with pytest.raises(ValueError):
        nlms_rectify(a, b)
    c = Signal1D(np.ones(10), 25.0)
    with pytest.raises(ValueError):
        nlms_rectify(a, c)
    d = Signal1D(np.ones(10), 20.0)
    with pytest.raises(ValueError):
        nlms_rectify(a, d, mu=0.0)
    with pytest.raises(ValueError):
        nlms_rectify(a, d, mu=2.5)
    with pytest.raises(ValueError):
        nlms_rectify(a, d, order=0)
    nlms_rectify(a, d, order=10)
    for order in (11, 10**12):  # checked before any order-sized array exists
        with pytest.raises(DataError, match=f"NLMS order {order} exceeds the signal length 10"):
            nlms_rectify(a, d, order=order)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_pearson_pinned_values():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0


def test_pearson_constant_input_is_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pearson([70, 70], [70, 70])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [5, 5, 5])


def test_pearson_matches_loop_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.normal(size=20).tolist()
        b = rng.normal(size=20).tolist()
        assert pearson(a, b) == pytest.approx(pearson_loop(a, b), abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(31)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    base = pearson(a, b)
    assert pearson(3.0 * a + 11.0, b) == pytest.approx(base, abs=1e-12)
    assert pearson(a, 0.25 * b - 7.0) == pytest.approx(base, abs=1e-12)


def test_rmse_pinned_values():
    assert rmse([72, 70], [70, 70]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rmse([1.5, 2.5, 3.5], [1.5, 2.5, 3.5]) == 0.0


def test_rmse_matches_loop_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        a = rng.normal(size=20).tolist()
        b = rng.normal(size=20).tolist()
        assert rmse(a, b) == pytest.approx(rmse_loop(a, b), abs=1e-12)


def test_metric_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# Hann overlap-add
# ---------------------------------------------------------------------------


def test_overlap_add_all_ones_interior_is_unity():
    out = hann_overlap_add([np.ones(32)] * 4, 20.0)
    hop = 16
    interior = out.samples[hop:-hop]
    assert np.max(np.abs(interior - 1.0)) <= 1e-12


def test_overlap_add_single_zero_block():
    out = hann_overlap_add([np.zeros(16)], 20.0)
    assert np.array_equal(out.samples, np.zeros(16))


def test_overlap_add_matches_direct_summation():
    rng = np.random.default_rng(41)
    blocks = [rng.normal(size=24), rng.normal(size=24)]
    got = hann_overlap_add(blocks, 20.0).samples
    want = overlap_add_oracle(blocks, 12)
    assert got == pytest.approx(want, abs=1e-12)


def test_overlap_add_reconstructs_interior_of_cut_signal():
    rng = np.random.default_rng(43)
    x = rng.normal(size=160)
    length, hop = 32, 16
    blocks = [x[o:o + length] for o in range(0, len(x) - length + 1, hop)]
    out = hann_overlap_add(blocks, 20.0).samples
    interior = slice(hop, hop * (len(blocks) - 1) + length - hop)
    scale = np.max(np.abs(x[interior]))
    assert np.max(np.abs(out[interior] - x[interior])) <= 1e-9 * scale


def test_overlap_add_explicit_offsets():
    rng = np.random.default_rng(47)
    blocks = [rng.normal(size=8), rng.normal(size=8)]
    out = hann_overlap_add(blocks, 20.0, offsets=[0, 6])
    assert len(out) == 14
    window = hann_periodic_oracle(8)
    want = np.zeros(14)
    want[0:8] += window * blocks[0]
    want[6:14] += window * blocks[1]
    assert out.samples == pytest.approx(want, abs=1e-12)


def test_overlap_add_argument_validation():
    with pytest.raises(ValueError):
        hann_overlap_add([], 20.0)
    with pytest.raises(ValueError):
        hann_overlap_add([np.ones(7)], 20.0)  # odd length
    with pytest.raises(ValueError):
        hann_overlap_add([np.ones(8), np.ones(10)], 20.0)
    with pytest.raises(ValueError):
        hann_overlap_add([np.ones(8), np.ones(8)], 20.0, offsets=[0])
    with pytest.raises(ValueError):
        hann_overlap_add([np.ones(8)], 20.0, offsets=[-2])


def alpha_overlap_add_loop(a, b, starts, n):
    """The alpha-tuned overlap-add one window at a time, with its own periodic Hann."""
    length = a.shape[1]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    out = np.zeros(n)
    for a_row, b_row, start in zip(a, b, starts):
        sb = b_row.std()
        ratio = a_row.std() / sb if sb > 0 else 0.0
        row = a_row - ratio * b_row
        out[start:start + length] += window * (row - row.mean())
    return out - out.mean()


@st.composite
def alpha_cases(draw):
    length = 2 * draw(st.integers(1, 8))
    w = draw(st.integers(1, 5))
    starts = draw(st.lists(st.integers(0, 3 * length), min_size=w, max_size=w))
    n = max(starts) + length + draw(st.integers(0, 4))  # windows may end short of n
    row = st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3), min_size=length, max_size=length)
    constant = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 2.0]).map(lambda c: [c] * length)  # std exactly 0
    a = np.array(draw(st.lists(row, min_size=w, max_size=w)))
    b = np.array(draw(st.lists(row | constant, min_size=w, max_size=w)))
    return a, b, starts, n


@settings(max_examples=200, deadline=None)
@given(alpha_cases())
@example((np.array([[-0.0, 1.0, -0.0, 2.0]]), np.array([[-2.0] * 4]), [0], 7))
@example((np.array([[1.0, -0.0, 3.0, 5.0], [-0.0, -0.0, -0.0, -0.0]]), np.array([[-1.0] * 4, [4.0, 1.0, 0.0, 2.0]]),
          [0, 2], 9))
def test_alpha_overlap_add_matches_window_loop(case):
    a, b, starts, n = case
    got = alpha_overlap_add(a, b, np.array(starts), n, 20.0)
    assert got.tobytes() == alpha_overlap_add_loop(a, b, starts, n).tobytes()


# ---------------------------------------------------------------------------
# analysis window length
# ---------------------------------------------------------------------------


def chrom_window_oracle(window_s, fs, n):
    """CHROM's own rule before the shared one: even frames, 8 up to the trace."""
    length = int(round(window_s * fs))
    if length % 2 == 1:
        length += 1
    if length < 8 or length > n:
        raise DataError(f"window of {length} frames")
    return length


def ssr_window_oracle(fps, window_l, n):
    """SSR's own rule before the shared one: ``window_l``, else one second made even, at least 2."""
    if window_l is None:
        window_l = int(round(fps))
        if window_l % 2 == 1:
            window_l += 1
        window_l = max(window_l, 2)
    if n < 2 or window_l > n:
        raise DataError(f"window of {window_l} frames")
    return window_l


def same_length_or_both_reject(oracle, got):
    try:
        want = oracle()
    except DataError:
        with pytest.raises(DataError):
            got()
    else:
        assert got() == want


#: Rates whose products land on the .5 ties of round().
RATES = st.sampled_from([0.5, 1.5, 2.5, 6.5, 7.5, 8.5, 20.0, 29.97]) | st.floats(0.01, 240.0)


@settings(max_examples=300, deadline=None)
@given(window_s=st.sampled_from([1.0, 1.6, 3.0]) | st.floats(0.01, 10.0), fs=RATES, n=st.integers(1, 3000))
def test_window_length_is_chroms_rule(window_s, fs, n):
    same_length_or_both_reject(
        lambda: chrom_window_oracle(window_s, fs, n),
        lambda: window_length(window_s * fs, n, minimum=8),
    )


@settings(max_examples=300, deadline=None)
@given(fps=RATES, window_l=st.none() | st.integers(1, 60).map(lambda k: 2 * k), n=st.integers(1, 300))
def test_window_length_is_ssrs_rule(fps, window_l, n):
    same_length_or_both_reject(
        lambda: ssr_window_oracle(fps, window_l, n),
        lambda: window_length(fps if window_l is None else window_l, n),
    )
