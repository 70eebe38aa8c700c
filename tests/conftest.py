"""Shared fixtures: synthetic datasets reused across test modules.

The big 60 s datasets are session-scoped so the end-to-end and acceptance
tests pay the generation cost once. ``rvid_sequence``, ``synth_bundle``,
``read_frames`` and ``entry_at`` are plain functions, so that hypothesis
strategies and module-level examples can call them too:
``from conftest import rvid_sequence``.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from rppgbench.bench import ALGORITHMS, SequenceBundle, load_bundle
from rppgbench.io import FrameSequence, RoiTrack, read_rvid, write_rvid
from rppgbench.synth import SynthConfig, build_dataset, generate, write_bundle

#: Where the helpers below write; removed when the test session's interpreter exits.
_FILES = tempfile.TemporaryDirectory(prefix="rppgbench-tests-")


def rvid_sequence(frames: np.ndarray, fps=20) -> FrameSequence:
    """uint8 ``frames`` (n, height, width, 3) written to a file of their own by ``write_rvid``, then ``read_rvid``."""
    n, height, width, _ = frames.shape
    fd, path = tempfile.mkstemp(suffix=".rvid", dir=_FILES.name)
    os.close(fd)
    write_rvid(width, height, fps, n, [frames], path)
    return read_rvid(path)


def read_frames(seq: FrameSequence, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Frames ``start`` to ``stop - 1`` of ``seq`` (all of them by default), read in one pass of ``seq.reader()``."""
    with seq.reader() as read:
        return read(start, seq.n_frames if stop is None else stop)


def entry_at(track: RoiTrack, frame: int):
    """The ROI entry of ``frame``, inherited from the most recent keyframe: a bisect oracle, independent of ``runs()``."""
    return track.entries[bisect_right(track.frames, frame) - 1]


def synth_bundle(config: SynthConfig) -> SequenceBundle:
    """``generate(config)`` written with ``write_bundle`` to a directory of its own and opened with ``load_bundle``."""
    directory = write_bundle(generate(config), tempfile.mkdtemp(dir=_FILES.name))
    return load_bundle(directory.parent, directory.name)

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
    """The bundle of one noise-free, drift-free 72 bpm sequence (30 s)."""
    return synth_bundle(SynthConfig(duration_s=30.0, noise_sd=0.0, seed=3))


@dataclass(frozen=True)
class StubParams:
    """Parameters of the stub algorithms that harness tests register."""

    bias: float = 0.0
    scale: float = 1.0


@pytest.fixture
def register_stub(monkeypatch):
    """Register ``run(features, StubParams) -> bpm``, reading no pixel feature, in ``ALGORITHMS`` for one test.

    Returns a function that registers ``run`` under its name and returns the tag.
    """

    def register(run) -> str:
        monkeypatch.setitem(ALGORITHMS, run.__name__, (StubParams, None, run, lambda params: []))
        return run.__name__

    return register
