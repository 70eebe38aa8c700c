"""Shared fixtures: synthetic datasets reused across test modules.

The big 60 s datasets are session-scoped so the end-to-end and acceptance
tests pay the generation cost once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from rppgbench.bench import ALGORITHMS
from rppgbench.synth import SynthConfig, build_dataset, generate

# ``pytest --hypothesis-profile=ci`` draws the same examples on every run, so a
# property test fails CI only when the code changes, never by the draw.
settings.register_profile("ci", derandomize=True)

# Heart rates spread uniformly over 50-110 bpm for the 16 scored sequences.
ACCEPTANCE_TEST_HRS = tuple(float(v) for v in np.linspace(50.0, 110.0, 16))
ACCEPTANCE_TRAIN_HRS = (65.0, 95.0)


def _acceptance_pairs():
    pairs = [(hr, "train") for hr in ACCEPTANCE_TRAIN_HRS]
    pairs += [(hr, "test") for hr in ACCEPTANCE_TEST_HRS]
    return pairs


@pytest.fixture(scope="session")
def acceptance_dataset(tmp_path_factory):
    """18 bundles (2 train + 16 test), 60 s at 20 fps, noise_sd 2, no drift."""
    root = tmp_path_factory.mktemp("ds_accept")
    base = SynthConfig(duration_s=60.0, noise_sd=2.0)
    build_dataset(root, _acceptance_pairs(), base_config=base, base_seed=500)
    return root


@pytest.fixture(scope="session")
def drift_dataset(tmp_path_factory):
    """Same layout as acceptance_dataset plus 0.1 Hz illumination drift."""
    root = tmp_path_factory.mktemp("ds_drift")
    base = SynthConfig(duration_s=60.0, noise_sd=2.0, illum_drift=(0.1, 6.0))
    build_dataset(root, _acceptance_pairs(), base_config=base, base_seed=500)
    return root


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """Quick 6-bundle dataset (20 s) for harness and CLI tests."""
    root = tmp_path_factory.mktemp("ds_small")
    pairs = [
        (66.0, "train"),
        (90.0, "train"),
        (60.0, "test"),
        (72.0, "test"),
        (84.0, "test"),
        (102.0, "test"),
    ]
    build_dataset(root, pairs, base_seed=101)
    return root


@pytest.fixture(scope="session")
def clean_sequence():
    """One noise-free, drift-free 72 bpm sequence (in memory, 30 s)."""
    config = SynthConfig(duration_s=30.0, noise_sd=0.0, seed=3)
    return generate(config)


@dataclass(frozen=True)
class StubParams:
    """Parameters of the stub algorithms that harness tests register."""

    bias: float = 0.0
    scale: float = 1.0


@pytest.fixture
def register_stub(monkeypatch):
    """Register ``run(features, StubParams) -> bpm`` in ``ALGORITHMS`` for one test.

    Returns a function that registers ``run`` under its name and returns the tag.
    """

    def register(run) -> str:
        monkeypatch.setitem(ALGORITHMS, run.__name__, (StubParams, None, run))
        return run.__name__

    return register
