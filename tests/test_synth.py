"""Synthetic generator: determinism, signal model fidelity, bundle layout, streamed frames, concurrent builds."""

import _thread
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rppgbench import synth
from rppgbench.io import (
    ProtocolEntry,
    ProtocolIndex,
    RoiPolygon,
    load_protocol,
    read_ground_truth,
    read_rvid,
    write_protocol,
)
from rppgbench.synth import (
    BACKGROUND_GRAY,
    BUNDLE_FILES,
    CLIP_LIMIT,
    SynthConfig,
    build_dataset,
    generate,
    write_bundle,
)

from conftest import entry_at, read_frames, synth_bundle


def skin_region(frames, rect):
    x, y, w, h = rect
    return frames[:, y:y + h, x:x + w, :]


def frames_of(config):
    """The frames of ``generate(config)``, written by ``write_bundle`` and read back whole."""
    seq = synth_bundle(config).sequence
    return read_frames(seq)


def whole_array_frames(config):
    """``(frames, over the clip limit)`` as the generator once rendered them: one array of the whole video."""
    n = config.n_frames
    rng = np.random.default_rng(config.seed)
    t = np.arange(n) / config.fps
    freq_hz = config.hr_bpm / 60.0
    pulse = np.sin(2.0 * np.pi * freq_hz * t)
    drift_freq, drift_amp = config.illum_drift
    drift = drift_amp * np.sin(2.0 * np.pi * drift_freq * t) if drift_amp > 0 else np.zeros(n)

    values = np.empty((n, config.height, config.width, 3))
    values[...] = BACKGROUND_GRAY
    x, y, w, h = config.skin_rect
    base = np.asarray(config.skin_base_rgb, dtype=np.float64)
    amp = np.asarray(config.pulse_amplitude, dtype=np.float64)
    skin = base[None, :] + amp[None, :] * pulse[:, None]  # (n, 3)
    values[:, y:y + h, x:x + w, :] = skin[:, None, None, :]
    values += drift[:, None, None, None]
    if config.noise_sd > 0:
        values += rng.normal(0.0, config.noise_sd, size=values.shape)

    quantized = np.rint(values)
    clipped = np.count_nonzero((quantized < 0) | (quantized > 255))
    return np.clip(quantized, 0, 255).astype(np.uint8), clipped > CLIP_LIMIT * quantized.size


@pytest.mark.parametrize(
    "config, clips",
    [
        # 66 frames in blocks of 21, with noise and drift.
        (SynthConfig(duration_s=3.3, noise_sd=2.0, illum_drift=(0.4, 5.0), seed=11), None),
        # 40 frames, fewer than one block of 81.
        (SynthConfig(width=37, height=29, fps=17, duration_s=2.35, noise_sd=3.0, skin_rect=(5, 4, 20, 17), seed=2),
         None),
        # 41 frames in blocks of 4, drift and no noise.
        (SynthConfig(width=160, height=120, duration_s=2.05, noise_sd=0.0, illum_drift=(0.2, 3.0),
                     skin_rect=(40, 30, 60, 50), seed=3), None),
        # One frame per block.
        (SynthConfig(width=320, height=240, duration_s=0.35, noise_sd=1.0, skin_rect=(100, 60, 120, 120), seed=4),
         None),
        # Some values clip, within the limit over the video though past it in the two middle blocks of 21
        # frames, where the drift lifts the skin's red over 255; then past the limit.
        (SynthConfig(duration_s=4.2, skin_base_rgb=(250.0, 120.0, 100.0), skin_rect=(16, 16, 12, 12),
                     pulse_amplitude=(0.0, 1.0, 0.5), noise_sd=0.0, illum_drift=(0.125, 10.0)), "within_limit"),
        (SynthConfig(duration_s=2.1, skin_base_rgb=(252.0, 120.0, 100.0), pulse_amplitude=(6.0, 1.0, 0.5),
                     noise_sd=0.0), "past_limit"),
    ],
    ids=["drift_noise", "one_short_block", "drift_no_noise", "frame_blocks", "clips_within_limit", "clips_past_limit"],
)
def test_streamed_frames_equal_the_whole_array(tmp_path, config, clips):
    want, over_limit = whole_array_frames(config)
    assert over_limit == (clips == "past_limit")
    assert (want == 255).any() == (clips is not None)
    result = generate(config)
    if over_limit:
        with pytest.raises(ValueError, match="clip"):
            write_bundle(result, tmp_path)
        assert not (tmp_path / BUNDLE_FILES["video"]).exists()
        return
    write_bundle(result, tmp_path)
    seq = read_rvid(tmp_path / BUNDLE_FILES["video"])
    assert read_frames(seq).tobytes() == want.tobytes()


def test_write_bundle_holds_a_small_part_of_the_video(tmp_path):
    # 5 s of 320x240 with noise and drift: 23 MB of frames, rendered a block at a time.
    config = SynthConfig(width=320, height=240, duration_s=5.0, noise_sd=2.0, illum_drift=(0.1, 6.0),
                         skin_rect=(100, 60, 120, 120))
    video_bytes = config.n_frames * config.height * config.width * 3
    tracemalloc.start()
    try:
        write_bundle(generate(config), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / BUNDLE_FILES["video"]).stat().st_size > video_bytes
    assert peak < video_bytes / 4, f"peak {peak} B of a {video_bytes} B video"


def test_generate_is_deterministic_bytewise(tmp_path):
    config = SynthConfig(duration_s=5.0, seed=42)
    a = generate(config)
    b = generate(config)
    write_bundle(a, tmp_path / "a")
    write_bundle(b, tmp_path / "b")
    for name in BUNDLE_FILES.values():
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_no_noise_no_pulse_gives_constant_skin():
    config = SynthConfig(duration_s=4.0, noise_sd=0.0, pulse_amplitude=(0.0, 0.0, 0.0))
    skin = skin_region(frames_of(config), config.skin_rect)
    assert np.all(skin == skin[0])


def test_mean_green_trace_peaks_at_pulse_frequency():
    config = SynthConfig(duration_s=20.0, hr_bpm=72.0, noise_sd=0.0,
                         pulse_amplitude=(0.4, 1.0, 0.6))
    green = skin_region(frames_of(config), config.skin_rect)[..., 1]
    trace = green.reshape(green.shape[0], -1).mean(axis=1)
    trace = trace - trace.mean()
    spectrum = np.abs(np.fft.rfft(trace))
    freqs = np.fft.rfftfreq(trace.size, 1 / config.fps)
    assert freqs[np.argmax(spectrum)] == pytest.approx(1.2, abs=0.05)


def test_noise_free_trace_matches_model():
    config = SynthConfig(duration_s=10.0, noise_sd=0.0)
    skin = skin_region(frames_of(config), config.skin_rect).astype(np.float64)
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
    entry = entry_at(result.roi, 0)
    assert isinstance(entry, RoiPolygon)
    x, y, w, h = config.skin_rect
    assert entry.points == ((x, y), (x + w, y), (x + w, y + h), (x, y + h))


def test_clipping_beyond_one_percent_rejected(tmp_path):
    config = SynthConfig(duration_s=2.0, skin_base_rgb=(252.0, 120.0, 100.0),
                         pulse_amplitude=(6.0, 1.0, 0.5), noise_sd=0.0)
    result = generate(config)  # holds no frames: they clip as write_bundle renders them
    with pytest.raises(ValueError, match="clip"):
        write_bundle(result, tmp_path)
    assert not (tmp_path / BUNDLE_FILES["video"]).exists()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(hr_bpm=20.0)
    with pytest.raises(ValueError):
        SynthConfig(hr_bpm=300.0)
    with pytest.raises(ValueError):
        SynthConfig(skin_rect=(60, 60, 10, 10))  # spills out of the 64x64 frame
    with pytest.raises(ValueError):
        SynthConfig(fps=0)
    # Frame counts and sides that an .rvid cannot hold.
    with pytest.raises(ValueError, match="frames of an .rvid"):
        SynthConfig(duration_s=1e308)
    with pytest.raises(ValueError, match="frames of an .rvid"):
        SynthConfig(duration_s=(1 << 32) / 20 + 1.0)
    with pytest.raises(ValueError, match="frames of an .rvid"):
        SynthConfig(duration_s=0.02)  # rounds to no frame
    with pytest.raises(ValueError, match="fps must lie in"):
        SynthConfig(fps=10**400)
    with pytest.raises(ValueError, match="frame dimensions must lie in"):
        SynthConfig(width=(1 << 20) + 1)
    assert SynthConfig(duration_s=(1 << 32) / 20).n_frames == 1 << 32


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
    assert not np.array_equal(read_frames(a), read_frames(b))  # same HR, different noise


def sequential_build(root, pairs, base_config, base_seed):
    """The dataset ``build_dataset`` promises, written one bundle after another."""
    entries = []
    for i, (hr, split) in enumerate(pairs):
        config = replace(base_config, hr_bpm=float(hr), seed=base_seed + i)
        write_bundle(generate(config, subject_id=f"subj{i:03d}"), root / f"seq{i:03d}")
        condition = "studio" if config.illum_drift[1] == 0 else "natural"
        entries.append(ProtocolEntry(f"seq{i:03d}", split, condition, f"subj{i:03d}"))
    write_protocol(ProtocolIndex(entries=tuple(entries), name="protocol"), root / "protocol.csv")


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cpus", [1, 3])
def test_worker_count_cannot_change_the_bytes(tmp_path, monkeypatch, cpus):
    pairs = [(60.0, "train"), (75.0, "train"), (90.0, "test"), (105.0, "test"), (120.0, "test")]
    base = SynthConfig(duration_s=3.0, noise_sd=2.0, illum_drift=(0.3, 4.0))
    sequential_build(tmp_path / "want", pairs, base, base_seed=17)
    workers = []
    pool = synth.ThreadPoolExecutor
    monkeypatch.setattr(synth, "affinity_cpus", lambda: cpus)
    monkeypatch.setattr(synth, "ThreadPoolExecutor", lambda n: workers.append(n) or pool(n))
    assert build_dataset(tmp_path / "got", pairs, base_config=base, base_seed=17) == tmp_path / "got" / "protocol.csv"
    assert workers == [min(len(pairs), cpus)]
    want = tree_bytes(tmp_path / "want")
    assert len(want) == 5 * len(BUNDLE_FILES) + 1
    assert tree_bytes(tmp_path / "got") == want


def test_build_raises_the_first_failing_pairs_error(tmp_path, monkeypatch):
    # Pair 3 fails while pair 1 is still running; pair 1's error is the one a
    # build in pair order raises, and the bundles still queued never start.
    pairs = [(72.0, "train")] * 2 + [(72.0, "test")] * 8
    pair3_failed = threading.Event()
    started = []
    write = synth.write_bundle

    def failing_write(result, out_dir):
        started.append(out_dir.name)
        if out_dir.name == "seq001":
            assert pair3_failed.wait(10)
            raise ValueError("pair 1")
        if out_dir.name == "seq003":
            pair3_failed.set()
            raise RuntimeError("pair 3")
        return write(result, out_dir)

    monkeypatch.setattr(synth, "affinity_cpus", lambda: 2)
    monkeypatch.setattr(synth, "write_bundle", failing_write)
    with pytest.raises(ValueError, match="pair 1"):
        build_dataset(tmp_path, pairs, base_config=SynthConfig(duration_s=1.0))
    assert not (tmp_path / "protocol.csv").exists()
    assert {"seq000", "seq002"} <= {p.name for p in tmp_path.iterdir()}
    assert "seq009" not in started


def test_interrupted_build_drops_the_queued_bundles(tmp_path, monkeypatch):
    # Ctrl-C reaches the main thread while it waits for the first bundle, every
    # pair long since queued.
    write = synth.write_bundle

    def interrupting_write(result, out_dir):
        if out_dir.name == "seq000":
            time.sleep(0.2)
            _thread.interrupt_main()
        return write(result, out_dir)

    monkeypatch.setattr(synth, "affinity_cpus", lambda: 1)
    monkeypatch.setattr(synth, "write_bundle", interrupting_write)
    with pytest.raises(KeyboardInterrupt):
        build_dataset(tmp_path, [(72.0, "train"), (72.0, "test")] * 4, base_config=SynthConfig(duration_s=1.0))
    assert not (tmp_path / "protocol.csv").exists()
    assert len(list(tmp_path.iterdir())) <= 2  # the interrupted bundle and at most the one started next


def test_all_clipping_build_leaves_the_root_empty(tmp_path):
    config = SynthConfig(duration_s=1.0, noise_sd=60.0)
    with pytest.raises(ValueError, match="clip"):
        build_dataset(tmp_path, [(72.0, "train"), (72.0, "test")], base_config=config)
    assert list(tmp_path.iterdir()) == []
