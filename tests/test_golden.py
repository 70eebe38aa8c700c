"""Golden outputs: SHA-256 digests of eval reports and of one search result.

The acceptance bounds cannot catch a small numeric change here (CHROM and
SSR score rho = 1.0 on synthetic data), so refactors of the pixel pass, the
extractors or the reports are guarded by these byte-level digests. A change
that alters them must say why in CHANGES.md and update the table below.
"""

import hashlib
import json

import pytest

from rppgbench import bench
from rppgbench.io import RoiPolygon, RoiTrack, load_protocol, write_roi_track
from rppgbench.synth import BUNDLE_FILES, SynthConfig, build_dataset

GOLDEN = {
    "chrom": "deef91273f2a0d8d2b42f961e14c91fcc0a7552bc18addd45eb9fa8be76b8cef",
    "licvpr": "ce9e53eddb593e2d65c904807f253d2b4b6f630ccae2b0fbc27ee4361289a0e4",
    "ssr": "f82f98bd870e63b3f3c1e7cb47567d8ee7230868b444b34ae06ff3e4aa3d1627",
    "search-chrom": "6c921c116728b24d3f41e62475213db2295af6ad0823fccaacd6ccaf0e7ae393",
}

#: Digests of the raw pulse samples on the moving-ROI bundle. Reports round
#: bpm to a spectral bin, so these catch changes the report digests miss.
GOLDEN_PULSES = {
    "chrom-bbox": "4232c5fcc0101503e5ec8d9f7c5faf9217d7ecbaf6f09e8bf5c5965ca74dfbb0",
    "chrom-skin": "6a424553d70899305f2ef1a522f5fb85c90203cf3c2b46909418edc5d8894a8c",
    "chrom-mask": "dffb2df620bdfc2bd04c5c10cd29bd93f16e276dda94ac4f11d30f530a86de19",
    "licvpr-bbox": "a99d90d4d603818eac8e666629f7851b0af846220261ea9a037f5f2ad9d1bd3c",
    "licvpr-skin": "59fceafe912ed711dab0c507986c53d0a7e6eeaf319b8ad4d03ad19670bafbd2",
    "licvpr-mask": "b7030234686f542395c639c5417f97d80fdf4073b50c36d2b23bb86a82f72984",
    "ssr-bbox": "435a2c791e52f8bb2d432dc7e4ea8b32d1c8aeef572cfd21063cf874c98de135",
    "ssr-skin": "cc665d73ecfc6fa5742e6854abab08019d42ffd4cce36e5591b5b2a9c616a4e7",
    "ssr-mask": "1c9fc90dd43b1f34c16aba6739722c1da7294d7367bb4afcf6f2dafb029bd12c",
}

SEARCH_STAGES = [
    {"name": "window", "grid": {"window_s": [1.2, 1.6]}},
    {"name": "skin", "grid": {"skin_tau": [0.2, 0.3]}},
]


def _moving_track(shifts) -> RoiTrack:
    """An octagon over the generator's skin square, nudged at a few frames."""
    frames, entries = [], []
    for frame, dx, dy in shifts:
        x, y = 16 + dx, 16 + dy
        corners = (
            (x + 6, y), (x + 26, y), (x + 32, y + 6), (x + 32, y + 26),
            (x + 26, y + 32), (x + 6, y + 32), (x, y + 26), (x, y + 6),
        )
        frames.append(frame)
        entries.append(RoiPolygon(corners))
    return RoiTrack(frames=tuple(frames), entries=tuple(entries))


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    """2 train + 3 test bundles, 64x64, 20 s; one test ROI moves."""
    root = tmp_path_factory.mktemp("ds_golden")
    pairs = [(66.0, "train"), (90.0, "train"), (58.0, "test"), (75.0, "test"), (104.0, "test")]
    build_dataset(root, pairs, base_config=SynthConfig(duration_s=20.0, noise_sd=2.0), base_seed=900)
    # Several ROI entries exercise the per-run grouping of the pixel pass.
    write_roi_track(_moving_track([(0, 0, 0), (37, 1, 0), (150, 0, 2), (151, -1.5, -1)]), root / "seq003" / BUNDLE_FILES["roi"])
    return root


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("algorithm", ["chrom", "licvpr", "ssr"])
def test_eval_report_digest(golden_dataset, tmp_path, algorithm):
    protocol = load_protocol(golden_dataset / "protocol.csv")
    report = bench.evaluate(protocol, "test", algorithm, golden_dataset)
    assert all(s.status == "ok" for s in report.sequences)
    path = tmp_path / f"{algorithm}.json"
    bench.emit_report(report, path)
    assert _sha256(path.read_bytes()) == GOLDEN[algorithm]


def test_search_result_digest(golden_dataset):
    protocol = load_protocol(golden_dataset / "protocol.csv")
    stages = [bench.SearchStage.from_dict(s, f"stage{i}") for i, s in enumerate(SEARCH_STAGES)]
    result = bench.greedy_search(stages, protocol, "chrom", golden_dataset, objective="neg_rmse")
    payload = (json.dumps(result.to_jsonable(), indent=2) + "\n").encode("utf-8")
    assert _sha256(payload) == GOLDEN["search-chrom"]


@pytest.mark.parametrize("strategy", ["bbox", "skin", "mask"])
@pytest.mark.parametrize("algorithm", ["chrom", "licvpr", "ssr"])
def test_pulse_samples_digest(golden_dataset, algorithm, strategy):
    bundle = bench.load_bundle(golden_dataset, "seq003")
    pulse = bench.extract_pulse(bundle, algorithm, {"strategy": strategy})
    assert _sha256(pulse.samples.tobytes()) == GOLDEN_PULSES[f"{algorithm}-{strategy}"]
