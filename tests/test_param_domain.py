"""Every value a params class accepts gives a pulse or an expected error.

One property test per params class draws overrides over the class's accepted
domain and runs ``extract_pulse`` then ``estimate_hr_spectral`` on a short
synthetic bundle; either may raise only one of ``EXPECTED_ERRORS``. Integer
draws stay within a few times the trace length, so no example asks for real
memory; the ``@example`` cases pin values that once escaped as a bare
``ValueError`` or a ``MemoryError``.
"""

import functools
import math
import sys

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from rppgbench.bench import SequenceBundle, build_params, extract_pulse
from rppgbench.errors import EXPECTED_ERRORS
from rppgbench.hr import estimate_hr_spectral
from rppgbench.roi import STRATEGIES
from rppgbench.synth import SynthConfig

from conftest import synth_bundle

CONFIG = SynthConfig(duration_s=8.0, seed=11)
N = CONFIG.n_frames
SETTINGS = settings(max_examples=60, deadline=None)

#: Any positive float, or one in the range the extractors are tuned for.
positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
seconds = st.one_of(st.floats(0.05, 10.0), positive)
band_edge = st.one_of(st.floats(0.01, 10.0), positive)
COMMON = {
    "strategy": st.sampled_from(STRATEGIES),
    "skin_tau": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
}


@functools.cache
def short_bundle() -> SequenceBundle:
    return synth_bundle(CONFIG)


def check(algorithm: str, overrides: dict) -> None:
    try:
        params = build_params(algorithm, overrides)
    except ValueError:
        reject()  # outside the class's domain, e.g. band_lo >= band_hi
    try:
        pulse = extract_pulse(short_bundle(), algorithm, params)
        estimate_hr_spectral(pulse, params.band)
    except EXPECTED_ERRORS:
        pass


@SETTINGS
@given(st.fixed_dictionaries({
    **COMMON,
    "window_s": seconds,
    "band_lo": band_edge,
    "band_hi": band_edge,
    "numtaps": st.integers(3, 4 * N),
}))
@example({"band_lo": 5e-324})  # the filter design's cutoff underflows to 0
def test_every_accepted_chrom_params_gives_a_pulse_or_an_expected_error(overrides):
    check("chrom", overrides)


@SETTINGS
@given(st.fixed_dictionaries({
    **COMMON,
    "mu": st.floats(0.0, 2.0, exclude_min=True),
    "order": st.integers(1, 4 * N),
    "rectify": st.booleans(),
    "segment_s": seconds,
    "discard_percentile": st.floats(0.0, 100.0, exclude_min=True),
    "detrend_lambda": st.one_of(st.floats(0.0, 1e4), st.floats(0.0, math.sqrt(sys.float_info.max))),
    "ma_window": st.integers(0, 2 * N).map(lambda k: 2 * k + 1),
    "band_lo": band_edge,
    "band_hi": band_edge,
    "background_margin": st.integers(0, 4 * CONFIG.width),
}))
@example({"detrend_lambda": 1e8})  # the banded Cholesky fails
@example({"detrend_lambda": 6e153})  # the band overflows, though the square does not
@example({"order": 10**12})  # more taps than samples
def test_every_accepted_licvpr_params_gives_a_pulse_or_an_expected_error(overrides):
    check("licvpr", overrides)


@SETTINGS
@given(st.fixed_dictionaries({
    **COMMON,
    "window_l": st.one_of(st.none(), st.integers(1, 2 * N).map(lambda k: 2 * k)),
    "degeneracy_eps": positive,
}))
def test_every_accepted_ssr_params_gives_a_pulse_or_an_expected_error(overrides):
    check("ssr", overrides)
