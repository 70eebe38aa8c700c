"""Synthetic generator: determinism, signal model fidelity, bundle layout."""

import numpy as np
import pytest

from rppgbench.io import RoiPolygon, load_protocol, read_ground_truth, read_rvid
from rppgbench.synth import BUNDLE_FILES, SynthConfig, build_dataset, generate, write_bundle


def skin_region(frames, rect):
    x, y, w, h = rect
    return frames[:, y:y + h, x:x + w, :]


def test_generate_is_deterministic_bytewise(tmp_path):
    config = SynthConfig(duration_s=5.0, seed=42)
    a = generate(config)
    b = generate(config)
    assert np.array_equal(a.sequence.frames, b.sequence.frames)
    write_bundle(a, tmp_path / "a")
    write_bundle(b, tmp_path / "b")
    for name in BUNDLE_FILES.values():
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_no_noise_no_pulse_gives_constant_skin():
    config = SynthConfig(duration_s=4.0, noise_sd=0.0, pulse_amplitude=(0.0, 0.0, 0.0))
    result = generate(config)
    skin = skin_region(result.sequence.frames, config.skin_rect)
    assert np.all(skin == skin[0])


def test_mean_green_trace_peaks_at_pulse_frequency():
    config = SynthConfig(duration_s=20.0, hr_bpm=72.0, noise_sd=0.0,
                         pulse_amplitude=(0.4, 1.0, 0.6))
    result = generate(config)
    green = skin_region(result.sequence.frames, config.skin_rect)[..., 1]
    trace = green.reshape(green.shape[0], -1).mean(axis=1)
    trace = trace - trace.mean()
    spectrum = np.abs(np.fft.rfft(trace))
    freqs = np.fft.rfftfreq(trace.size, 1 / config.fps)
    assert freqs[np.argmax(spectrum)] == pytest.approx(1.2, abs=0.05)


def test_noise_free_trace_matches_model():
    config = SynthConfig(duration_s=10.0, noise_sd=0.0)
    result = generate(config)
    skin = skin_region(result.sequence.frames, config.skin_rect).astype(np.float64)
    n_px = skin.shape[1] * skin.shape[2]
    t = np.arange(config.n_frames) / config.fps
    pulse = np.sin(2 * np.pi * (config.hr_bpm / 60.0) * t)
    for c in range(3):
        want = config.skin_base_rgb[c] + config.pulse_amplitude[c] * pulse
        got = skin[..., c].reshape(len(t), -1).mean(axis=1)
        assert np.max(np.abs(got - want)) <= 0.5 / np.sqrt(n_px) + 0.5  # rounding bound
    # per-frame spatial agreement: all skin pixels identical without noise
    assert np.all(skin.reshape(len(t), -1, 3).std(axis=1) == 0)


def test_ground_truth_equals_config_exactly():
    result = generate(SynthConfig(duration_s=2.0, hr_bpm=83.25))
    assert result.ground_truth.bpm == 83.25
    assert result.ground_truth.method == "synthetic"


def test_bvp_is_256hz_same_sinusoid():
    config = SynthConfig(duration_s=8.0, hr_bpm=90.0)
    result = generate(config)
    assert result.bvp.fs == 256.0
    assert result.bvp.samples.size == 8 * 256
    t = np.arange(result.bvp.samples.size) / 256.0
    assert np.array_equal(result.bvp.samples, np.sin(2 * np.pi * 1.5 * t))


def test_roi_is_skin_rect_polygon():
    config = SynthConfig(duration_s=1.0)
    result = generate(config)
    entry = result.roi.entry_for(0)
    assert isinstance(entry, RoiPolygon)
    x, y, w, h = config.skin_rect
    assert entry.points == ((x, y), (x + w, y), (x + w, y + h), (x, y + h))


def test_clipping_beyond_one_percent_rejected():
    config = SynthConfig(duration_s=2.0, skin_base_rgb=(252.0, 120.0, 100.0),
                         pulse_amplitude=(6.0, 1.0, 0.5), noise_sd=0.0)
    with pytest.raises(ValueError, match="clip"):
        generate(config)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(hr_bpm=20.0)
    with pytest.raises(ValueError):
        SynthConfig(hr_bpm=300.0)
    with pytest.raises(ValueError):
        SynthConfig(skin_rect=(60, 60, 10, 10))  # spills out of the 64x64 frame
    with pytest.raises(ValueError):
        SynthConfig(fps=0)


def test_drift_sets_natural_lighting():
    studio = generate(SynthConfig(duration_s=1.0))
    natural = generate(SynthConfig(duration_s=1.0, illum_drift=(0.1, 3.0)))
    assert studio.bvp.lighting == "studio"
    assert natural.bvp.lighting == "natural"


def test_build_dataset_layout_and_protocol(tmp_path):
    pairs = [(60.0, "train"), (72.0, "train"), (84.0, "test"), (96.0, "test")]
    protocol_path = build_dataset(tmp_path, pairs, base_seed=7)
    index = load_protocol(protocol_path)
    assert [e.sequence_id for e in index.entries] == ["seq000", "seq001", "seq002", "seq003"]
    assert [e.split for e in index.entries] == ["train", "train", "test", "test"]
    assert index.subjects("train") == {"subj000", "subj001"}

    for i, (hr, _) in enumerate(pairs):
        bundle_dir = tmp_path / f"seq{i:03d}"
        for name in BUNDLE_FILES.values():
            assert (bundle_dir / name).exists()
        assert read_ground_truth(bundle_dir / "gt.json").bpm == hr
        seq = read_rvid(bundle_dir / "video.rvid")
        assert seq.n_frames == 20 * 20  # 20 s at 20 fps


def test_build_dataset_seeds_differ_per_sequence(tmp_path):
    pairs = [(72.0, "train"), (72.0, "test")]
    build_dataset(tmp_path, pairs, base_seed=3)
    a = read_rvid(tmp_path / "seq000" / "video.rvid")
    b = read_rvid(tmp_path / "seq001" / "video.rvid")
    assert not np.array_equal(a.read(0, a.n_frames), b.read(0, b.n_frames))  # same HR, different noise
