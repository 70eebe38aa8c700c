"""The per-sequence feature store shared by a search's candidates."""

import gc
import json
import shutil
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rppgbench import bench, ssr
from rppgbench.bench import ALGORITHMS, FeatureStore, SearchStage, SequenceBundle, evaluate, greedy_search
from rppgbench.io import FrameSequence, RoiPolygon, RoiTrack, load_protocol, write_roi_track, write_rvid
from rppgbench.roi import STRATEGIES
from rppgbench.ssr import SsrParams

#: Small grids per algorithm: pulse-only stages first, then a feature stage.
STAGES = {
    "chrom": [
        {"name": "window", "grid": {"window_s": [1.6, 3.2]}},
        {"name": "strategy", "grid": {"strategy": ["bbox", "skin"]}},
        {"name": "skin", "grid": {"skin_tau": [0.2, 0.3]}},
    ],
    "licvpr": [
        {"name": "detrend", "grid": {"detrend_lambda": [100.0, 300.0]}},
        {"name": "background", "grid": {"background_margin": [5, 10]}},
    ],
    "ssr": [
        {"name": "window", "grid": {"window_l": [16, 20]}},
        {"name": "skin", "grid": {"skin_tau": [0.2, 0.3]}},
    ],
}


def stages_of(payload) -> list:
    return [SearchStage.from_dict(stage) for stage in payload]


@pytest.fixture(scope="module")
def protocol(small_dataset):
    return load_protocol(small_dataset / "protocol.csv")


@pytest.fixture
def peaks_dataset(small_dataset, tmp_path):
    """The train bundles of ``small_dataset`` without gt.json: truth comes from the BVP."""
    for seq in ("seq000", "seq001"):
        shutil.copytree(small_dataset / seq, tmp_path / seq)
        (tmp_path / seq / "gt.json").unlink()
    return tmp_path


@pytest.fixture
def reads(monkeypatch):
    """Count video and BVP reads per sequence directory."""
    counts = {"video": Counter(), "bvp": Counter()}

    def counting(kind, func):
        def wrapper(path, *args, **kwargs):
            counts[kind][Path(path).parent.name] += 1
            return func(path, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(bench, "read_rvid", counting("video", bench.read_rvid))
    monkeypatch.setattr(bench, "read_physio_csv", counting("bvp", bench.read_physio_csv))
    return counts


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_search_objectives_equal_fresh_evaluations(protocol, small_dataset, algorithm):
    result = greedy_search(
        stages_of(STAGES[algorithm]), protocol, algorithm, small_dataset, objective="neg_rmse", split="train"
    )
    rows = [row for stage in result.trace for row in stage["evaluations"]]
    assert len(rows) == result.n_evaluations and all(row["error"] is None for row in rows)
    for row in rows:
        fresh = evaluate(protocol, "train", algorithm, small_dataset, params=row["params"])
        assert row["objective_value"] == -fresh.rmse, row["params"]


def test_search_json_is_the_same_at_any_jobs(protocol, small_dataset):
    outputs = []
    for jobs in (1, 2):
        result = greedy_search(
            stages_of(STAGES["chrom"]), protocol, "chrom", small_dataset, objective="neg_rmse", jobs=jobs
        )
        outputs.append(json.dumps(result.to_jsonable(), indent=2))
    assert outputs[0] == outputs[1]


def test_pulse_stages_read_each_file_once(protocol, peaks_dataset, reads):
    stages = [{"grid": {"window_s": [0.8, 1.6, 3.2]}}, {"grid": {"band_lo": [0.5, 0.67], "band_hi": [3.0, 4.0]}}]
    greedy_search(stages_of(stages), protocol, "chrom", peaks_dataset, objective="neg_rmse")
    assert reads["video"] == {"seq000": 1, "seq001": 1}
    assert reads["bvp"] == {"seq000": 1, "seq001": 1}


@pytest.mark.parametrize(
    "algorithm, stages",
    [
        ("chrom", [{"grid": {"window_s": [1.6, 3.2]}}, {"grid": {"skin_tau": [0.3, 0.2]}}]),
        ("licvpr", [{"grid": {"detrend_lambda": [100.0, 300.0]}}, {"grid": {"background_margin": [10, 5]}}]),
    ],
    ids=["skin_tau", "background_margin"],
)
def test_feature_stage_reads_each_video_again(protocol, peaks_dataset, reads, algorithm, stages):
    # The defaults (skin_tau 0.3, background_margin 10) come first and hit;
    # the second value is a new feature setting, so each video is read again.
    greedy_search(stages_of(stages), protocol, algorithm, peaks_dataset, objective="neg_rmse")
    assert reads["video"] == {"seq000": 2, "seq001": 2}
    assert reads["bvp"] == {"seq000": 1, "seq001": 1}


def _reachable(root):
    """Every object reachable from ``root``, not crossing into types, modules or code."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)


def test_store_holds_no_frames(protocol, small_dataset):
    store = FeatureStore(small_dataset)
    for algorithm in ALGORITHMS:
        evaluate(protocol, "train", algorithm, small_dataset, store=store)
    held = list(_reachable(store))
    assert not [obj for obj in held if isinstance(obj, (FrameSequence, SequenceBundle))]
    arrays = [obj for obj in held if isinstance(obj, np.ndarray)]
    assert arrays, "the store kept no feature"
    seq = bench.load_bundle(small_dataset, "seq000").sequence
    video_bytes = seq.n_frames * seq.height * seq.width * 3
    assert sum(a.nbytes for a in arrays) < video_bytes / 10


def test_pixel_passes_hold_a_small_part_of_the_video(tmp_path):
    # A 5 s, 320x240 video (23 MB of frames): a skin-coloured face square on
    # gray, with noise, and a landmark octagon inside the square.
    n, h, w = 100, 240, 320
    frames = np.full((n, h, w, 3), 128, dtype=np.uint8)
    frames[:, 60:180, 100:220] = (180, 120, 100)
    frames += np.random.default_rng(0).integers(0, 4, size=frames.shape, dtype=np.uint8)
    directory = tmp_path / "seq"
    directory.mkdir()
    write_rvid(FrameSequence(width=w, height=h, fps=20, frames=frames), directory / "video.rvid")
    del frames
    octagon = RoiPolygon(((130, 60), (190, 60), (220, 90), (220, 150), (190, 180), (130, 180), (100, 150), (100, 90)))
    write_roi_track(RoiTrack(frames=(0,), entries=(octagon,)), directory / "roi.csv")
    video_bytes = n * h * w * 3

    tracemalloc.start()
    try:
        features = FeatureStore(tmp_path).sequence("seq")
        features.bundle  # load_bundle
        for strategy in STRATEGIES:  # skin fits its model on frame 0 first
            trace = features.rgb_trace(strategy, 0.3)
            assert trace.fallback_frames == ()
        features.background(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < video_bytes / 4, f"peak {peak} B of a {video_bytes} B video"


def test_failed_feature_is_not_stored(protocol, small_dataset, monkeypatch):
    calls = Counter()
    original = bench.background_trace

    def counting(seq, roi, margin):
        calls[margin] += 1
        return original(seq, roi, margin)

    monkeypatch.setattr(bench, "background_trace", counting)
    # A 100 px margin grows the 32 px face box past the 64x64 frame.
    stages = [{"grid": {"background_margin": [100, 5, 100]}}]
    result = greedy_search(stages_of(stages), protocol, "licvpr", small_dataset, objective="neg_rmse")
    rows = result.trace[0]["evaluations"]
    assert [row["error"] is None for row in rows] == [False, True, False]
    reason = "DataError: no background pixels left at frame 0: the ROI grown by 100 px covers the frame"
    assert rows[0]["error"] == rows[2]["error"] == (
        "DataError: only 0 of 2 sequences succeeded; aggregates need at least 2; "
        f"failed: seq000 ({reason}), seq001 ({reason})"
    )
    assert result.best_params["background_margin"] == 5
    assert calls == {100: 4, 5: 2}


def test_chrom_and_ssr_share_one_pixel_pass(protocol, peaks_dataset, reads):
    # CHROM's mean RGB and SSR's correlations are one feature per selection.
    store = FeatureStore(peaks_dataset)
    selection = {"strategy": "skin", "skin_tau": 0.3}
    evaluate(protocol, "train", "chrom", peaks_dataset, params=selection, store=store)
    shared = evaluate(protocol, "train", "ssr", peaks_dataset, params=selection, store=store)
    assert reads["video"] == {"seq000": 1, "seq001": 1}
    assert shared == evaluate(protocol, "train", "ssr", peaks_dataset, params=selection)


def test_store_serves_one_dataset(protocol, small_dataset, tmp_path):
    with pytest.raises(ValueError, match="feature store"):
        evaluate(protocol, "train", "chrom", small_dataset, store=FeatureStore(tmp_path))


def test_ssr_window_candidates_share_one_eigen_decomposition(protocol, small_dataset, monkeypatch):
    calls = Counter()
    original = ssr.correlation_eigens

    def counting(correlations):
        calls[len(correlations)] += 1
        return original(correlations)

    monkeypatch.setattr(ssr, "correlation_eigens", counting)
    result = greedy_search(
        stages_of([{"grid": {"window_l": [16, 20]}}]), protocol, "ssr", small_dataset, objective="neg_rmse"
    )
    assert [row["error"] for row in result.trace[0]["evaluations"]] == [None, None]
    # One batched eigh per train sequence, not one per sequence and candidate.
    assert sum(calls.values()) == 2


def test_store_served_eigens_give_the_fresh_pulse(small_dataset):
    features = FeatureStore(small_dataset).sequence("seq000")
    bench.pulse_ssr(features, SsrParams(window_l=16))
    params = SsrParams(window_l=20)
    served = bench.pulse_ssr(features, params)
    fresh = bench.pulse_ssr(FeatureStore(small_dataset).sequence("seq000"), params)
    assert served.samples.tobytes() == fresh.samples.tobytes()
