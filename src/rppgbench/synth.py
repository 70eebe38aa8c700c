"""Synthetic video/BVP generator with exactly known heart rate.

A skin rectangle pulses sinusoidally on top of its base color; everything
else is flat gray. Illumination drift (shared by skin and background) and
per-pixel Gaussian noise are optional. The companion contact BVP is the same
sinusoid sampled at 256 Hz.

No whole video is held in memory: :func:`generate` describes a bundle, and
:func:`write_bundle` renders its frames a block of about ``io.BLOCK_BYTES``
at a time and streams them to ``video.rvid``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .hr import HrEstimate
from .io import (
    _MAX_DIM,
    _MAX_FRAMES,
    BLOCK_BYTES,
    SPLITS,
    PhysioSignal,
    ProtocolEntry,
    ProtocolIndex,
    RoiPolygon,
    RoiTrack,
    affinity_cpus,
    write_ground_truth,
    write_physio_csv,
    write_protocol,
    write_roi_track,
    write_rvid,
)
from .roi import check_finite

__all__ = ["SynthConfig", "SynthResult", "generate", "write_bundle", "build_dataset", "BUNDLE_FILES"]

BVP_RATE_HZ = 256.0
BACKGROUND_GRAY = 128.0
#: Largest tolerated fraction of clipped pixel values.
CLIP_LIMIT = 0.01

#: File names of a sequence bundle inside its directory.
BUNDLE_FILES = {
    "video": "video.rvid",
    "roi": "roi.csv",
    "physio": "bvp.csv",
    "physio_meta": "bvp_meta.json",
    "ground_truth": "gt.json",
}


@dataclass(frozen=True)
class SynthConfig:
    """Generation parameters; defaults give a clean green-dominant pulse."""

    width: int = 64
    height: int = 64
    fps: int = 20
    duration_s: float = 20.0
    hr_bpm: float = 72.0
    pulse_amplitude: tuple[float, float, float] = (0.5, 1.0, 0.5)
    skin_base_rgb: tuple[float, float, float] = (180.0, 120.0, 100.0)
    noise_sd: float = 1.0
    illum_drift: tuple[float, float] = (0.0, 0.0)  # (freq_hz, amplitude)
    skin_rect: tuple[int, int, int, int] = (16, 16, 32, 32)
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if not (0 < self.width <= _MAX_DIM and 0 < self.height <= _MAX_DIM):
            raise ValueError(f"frame dimensions must lie in [1, {_MAX_DIM}], got {self.width}x{self.height}")
        if not 0 < self.fps <= _MAX_FRAMES:
            raise ValueError(f"fps must lie in [1, {_MAX_FRAMES}], got {self.fps}")
        if not 0.5 < self.duration_s * self.fps <= _MAX_FRAMES + 0.5:  # so n_frames rounds to 1 to _MAX_FRAMES
            raise ValueError(f"{self.duration_s} s at {self.fps} fps is not 1 to {_MAX_FRAMES} frames of an .rvid")
        if not 40.0 <= self.hr_bpm <= 240.0:
            raise ValueError(f"hr_bpm must lie in [40, 240], got {self.hr_bpm}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be non-negative, got {self.noise_sd}")
        freq, amp = self.illum_drift
        if freq < 0 or amp < 0:
            raise ValueError("illumination drift frequency and amplitude must be non-negative")
        x, y, w, h = self.skin_rect
        if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > self.width or y + h > self.height:
            raise ValueError(f"skin_rect {self.skin_rect} must lie inside the {self.width}x{self.height} frame")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.fps))


class SynthResult(NamedTuple):
    """A bundle to write; :func:`write_bundle` renders its video from ``config``."""

    config: SynthConfig
    bvp: PhysioSignal
    roi: RoiTrack
    ground_truth: HrEstimate


def generate(config: SynthConfig, subject_id: str | None = None) -> SynthResult:
    """Describe a synthetic sequence, frames aside; :func:`write_bundle` gives identical bytes for identical config."""
    if subject_id is None:
        subject_id = f"subj{config.seed:05d}"
    n_bvp = int(round(config.duration_s * BVP_RATE_HZ))
    t_bvp = np.arange(n_bvp) / BVP_RATE_HZ
    bvp = PhysioSignal(
        kind="bvp",
        fs=BVP_RATE_HZ,
        samples=np.sin(2.0 * np.pi * (config.hr_bpm / 60.0) * t_bvp),
        subject_id=subject_id,
        lighting="studio" if config.illum_drift[1] == 0 else "natural",
    )
    x, y, w, h = config.skin_rect
    corners = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
    roi = RoiTrack(frames=(0,), entries=(RoiPolygon(corners),))
    return SynthResult(config, bvp, roi, HrEstimate(bpm=config.hr_bpm, method="synthetic"))


def _frame_blocks(config: SynthConfig):
    """Yield the video's frames in uint8 blocks of about ``BLOCK_BYTES``, the noise drawn in order from one generator.

    After the last block, raises ValueError when more than ``CLIP_LIMIT`` of
    the pixel values clip at 0 or 255, since clipping breaks the additive
    signal model the generator promises.
    """
    n = config.n_frames
    rng = np.random.default_rng(config.seed)
    t = np.arange(n) / config.fps
    pulse = np.sin(2.0 * np.pi * (config.hr_bpm / 60.0) * t)
    drift_freq, drift_amp = config.illum_drift
    drift = drift_amp * np.sin(2.0 * np.pi * drift_freq * t) if drift_amp > 0 else np.zeros(n)
    x, y, w, h = config.skin_rect
    base = np.asarray(config.skin_base_rgb, dtype=np.float64)
    amp = np.asarray(config.pulse_amplitude, dtype=np.float64)
    skin = base[None, :] + amp[None, :] * pulse[:, None]  # (n, 3)
    step = max(1, BLOCK_BYTES // (config.width * config.height * 3))
    clipped = 0
    for start in range(0, n, step):
        stop = min(start + step, n)
        values = np.full((stop - start, config.height, config.width, 3), BACKGROUND_GRAY)
        values[:, y:y + h, x:x + w, :] = skin[start:stop, None, None, :]
        values += drift[start:stop, None, None, None]
        if config.noise_sd > 0:
            values += rng.normal(0.0, config.noise_sd, size=values.shape)
        np.rint(values, out=values)
        clipped += np.count_nonzero((values < 0) | (values > 255))
        yield np.clip(values, 0, 255, out=values).astype(np.uint8)
    total = n * config.height * config.width * 3
    if clipped > CLIP_LIMIT * total:
        raise ValueError(
            f"{clipped / total:.1%} of pixel values clip "
            f"(limit {CLIP_LIMIT:.0%}); lower the amplitudes or move the base colors"
        )


def write_bundle(result: SynthResult, out_dir) -> Path:
    """Write one sequence's bundle files to ``out_dir``; a video over ``CLIP_LIMIT`` leaves no file, no new folder."""
    out_dir = Path(out_dir)
    made = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    config = result.config
    try:
        write_rvid(config.width, config.height, config.fps, config.n_frames, _frame_blocks(config),
                   out_dir / BUNDLE_FILES["video"])
    except BaseException:
        if made:
            out_dir.rmdir()
        raise
    write_roi_track(result.roi, out_dir / BUNDLE_FILES["roi"])
    write_physio_csv(result.bvp, out_dir / BUNDLE_FILES["physio"], out_dir / BUNDLE_FILES["physio_meta"])
    write_ground_truth(result.ground_truth.bpm, out_dir / BUNDLE_FILES["ground_truth"])
    return out_dir


def build_dataset(
    root,
    hr_split_pairs: Sequence[tuple[float, str]],
    base_config: SynthConfig = SynthConfig(),
    base_seed: int | None = None,
) -> Path | None:
    """Generate one bundle per (hr, split) pair and write the protocol CSV.

    Sequences are named ``seq000``, ``seq001``, ... in pair order, each with
    its own seed and subject id, so bundles are written concurrently with the
    same bytes at any CPU count; a failure raises the first failing pair's
    error and drops queued bundles. The protocol is written only when both
    splits have entries, since it needs both to load; returns its path, else None.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if base_seed is None:
        base_seed = base_config.seed

    def build(i: int, pair: tuple[float, str]) -> ProtocolEntry:
        hr, split = pair
        config = replace(base_config, hr_bpm=float(hr), seed=base_seed + i)
        sid = f"seq{i:03d}"
        subject = f"subj{i:03d}"
        result = generate(config, subject_id=subject)
        write_bundle(result, root / sid)
        return ProtocolEntry(sequence_id=sid, split=split, condition=result.bvp.lighting, subject_id=subject)

    with ThreadPoolExecutor(min(len(hr_split_pairs), affinity_cpus()) or 1) as pool:
        entries = list(pool.map(build, range(len(hr_split_pairs)), hr_split_pairs))  # a failure cancels the queue
    if {e.split for e in entries} != set(SPLITS):
        return None
    path = root / "protocol.csv"
    write_protocol(ProtocolIndex(entries=tuple(entries), name="protocol"), path)
    return path
