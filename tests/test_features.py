"""The per-sequence feature store shared by a search's candidates."""

import dataclasses
import gc
import json
import re
import shutil
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import synth_bundle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rppgbench import bench, ssr
from rppgbench.bench import ALGORITHMS, FeatureStore, SearchStage, SequenceBundle, evaluate, greedy_search
from rppgbench.errors import EXPECTED_ERRORS, DataError, FormatError, _memo
from rppgbench.io import (
    FrameSequence,
    ProtocolEntry,
    ProtocolIndex,
    RoiBox,
    RoiPolygon,
    RoiTrack,
    load_protocol,
    write_roi_track,
    write_rvid,
)
from rppgbench.roi import STRATEGIES, pixel_features, pixel_key
from rppgbench.ssr import SsrParams, trace_eigens
from rppgbench.synth import SynthConfig

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


@pytest.fixture
def passes(monkeypatch):
    """``(sequence directory, keys)`` of every pixel pass, in call order."""
    calls = []
    original = bench.pixel_features

    def counting(seq, roi, keys, model=None):
        keys = list(keys)
        calls.append((Path(seq.path).parent.name, set(keys)))
        return original(seq, roi, keys, model)

    monkeypatch.setattr(bench, "pixel_features", counting)
    return calls


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


@pytest.fixture
def evaluations(monkeypatch):
    """The params of every ``evaluate`` call that ``greedy_search`` makes, in call order."""
    calls = []
    original = bench.evaluate

    def counting(*args, **kwargs):
        calls.append(kwargs["params"])
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "evaluate", counting)
    return calls


def stage_by_stage(stages, protocol, algorithm, root, objective):
    """The search as one call per stage from the earlier winners, so no call meets an earlier stage's candidate."""
    best, trace, n_evaluations = {}, [], 0
    for stage in stages:
        result = greedy_search([stage], protocol, algorithm, root, objective=objective, defaults=best)
        best, trace, n_evaluations = result.best_params, trace + list(result.trace), n_evaluations + result.n_evaluations
    return bench.SearchResult(best_params=best, objective=objective, trace=tuple(trace), n_evaluations=n_evaluations)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_search_scores_each_distinct_candidate_once(protocol, small_dataset, evaluations, algorithm):
    # Each later stage tries the incumbent again (its grid holds the default); it is scored once.
    stages = stages_of(STAGES[algorithm])
    result = greedy_search(stages, protocol, algorithm, small_dataset, objective="neg_rmse")
    built = [bench.build_params(algorithm, row["params"]) for stage in result.trace for row in stage["evaluations"]]
    assert len(built) == result.n_evaluations > len(evaluations) == len(set(built))
    assert evaluations == list(dict.fromkeys(built))
    evaluations.clear()
    oracle = stage_by_stage(stages, protocol, algorithm, small_dataset, "neg_rmse")
    assert len(evaluations) == result.n_evaluations
    assert json.dumps(result.to_jsonable(), indent=2) == json.dumps(oracle.to_jsonable(), indent=2)


def test_search_scores_a_failed_candidate_once(protocol, small_dataset, evaluations):
    stages = stages_of([{"grid": {"detrend_lambda": [100.0, 300.0]}}, {"grid": {"background_margin": [100, 5, 100]}}])
    result = greedy_search(stages, protocol, "licvpr", small_dataset, objective="neg_rmse")
    rows = result.trace[1]["evaluations"]
    assert [row["error"] is None for row in rows] == [False, True, False] and rows[0]["error"] == rows[2]["error"]
    assert [params.background_margin for params in evaluations] == [10, 10, 100, 5]
    assert result.n_evaluations == 5


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
    "algorithm, stages, keys",
    [
        ("chrom", [{"grid": {"window_s": [1.6, 3.2]}}, {"grid": {"skin_tau": [0.3, 0.2]}}],
         {("rgb", "skin", 0.3), ("rgb", "skin", 0.2)}),
        ("licvpr", [{"grid": {"detrend_lambda": [100.0, 300.0]}}, {"grid": {"background_margin": [10, 5]}}],
         {("rgb", "mask", None), ("background", 10), ("background", 5)}),
    ],
    ids=["skin_tau", "background_margin"],
)
def test_feature_stage_reads_each_video_once(protocol, peaks_dataset, reads, passes, algorithm, stages, keys):
    # The search plans the features of every combination before its first
    # evaluation, so the first pass over each video computes the second
    # feature setting too, and the feature stage reads no video.
    greedy_search(stages_of(stages), protocol, algorithm, peaks_dataset, objective="neg_rmse")
    assert reads["video"] == {"seq000": 1, "seq001": 1}
    assert reads["bvp"] == {"seq000": 1, "seq001": 1}
    assert passes == [("seq000", keys), ("seq001", keys)]


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
    # A 100 px margin grows the 32 px face box past the 64x64 frame: a planned
    # feature that fails on every bundle, stored as its failure and raised again.
    store.plan([("background", 100)])
    for algorithm in ALGORITHMS:
        evaluate(protocol, "train", algorithm, small_dataset, store=store)
    with pytest.raises(DataError, match="only 0 of 2 sequences succeeded"):
        evaluate(protocol, "train", "licvpr", small_dataset, params={"background_margin": 100}, store=store)
    held = list(_reachable(store))
    assert not [obj for obj in held if isinstance(obj, (FrameSequence, SequenceBundle))]
    assert len([obj for obj in held if isinstance(obj, DataError)]) == 2, "each train bundle stores its failure"
    assert not [obj for obj in held if isinstance(obj, (types.TracebackType, types.FrameType))]
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
    write_rvid(w, h, 20, n, [frames], directory / "video.rvid")
    del frames
    octagon = RoiPolygon(((130, 60), (190, 60), (220, 90), (220, 150), (190, 180), (130, 180), (100, 150), (100, 90)))
    write_roi_track(RoiTrack(frames=(0,), entries=(octagon,)), directory / "roi.csv")
    video_bytes = n * h * w * 3

    tracemalloc.start()
    try:
        features = FeatureStore(tmp_path).sequence("seq")
        features.bundle  # load_bundle
        for strategy in STRATEGIES:  # skin fits its model on frame 0 first
            trace = features[pixel_key("rgb", strategy, 0.3)]
            assert trace.fallback_frames == ()
        features[("background", 10)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < video_bytes / 4, f"peak {peak} B of a {video_bytes} B video"


def test_failed_feature_is_stored_as_its_failure(protocol, small_dataset, passes):
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
    # The first pass over each video computes every planned feature, and
    # margin 100 fails alone; the third candidate reads its stored failure.
    planned = {("rgb", "mask", None), ("background", 100), ("background", 5)}
    assert passes == [("seq000", planned), ("seq001", planned)]


#: Every pixel feature a run may plan, and the messages of those that a ROI fails.
PLANNED = (("rgb", "bbox", None), ("rgb", "skin", 0.3), ("rgb", "skin", 0.2), ("rgb", "mask", None),
           ("background", 5), ("background", 100))
SQUARE = RoiPolygon(((16, 16), (48, 16), (48, 48), (16, 48)))
NO_BACKGROUND = "DataError: no background pixels left at frame 0: the ROI grown by 100 px covers the frame"


@pytest.mark.parametrize(
    "entry, failures",
    [
        (SQUARE, {}),
        (RoiBox(16, 16, 32, 32), {("rgb", "mask", None): "DataError: strategy 'mask' requires landmark ROI entries"}),
        (RoiPolygon(((20, 20), (29, 20), (29, 29), (20, 29))),
         dict.fromkeys(PLANNED[1:3], "DataError: ROI must contain at least 100 pixels, got 81")),
        # Off the frame: the skin fit fails first, as it ran before any pass.
        (RoiPolygon(((60, 60), (69, 60), (69, 69), (60, 69))),
         {**dict.fromkeys(PLANNED[:4], "DataError: ROI for frame 0 exceeds the frame bounds"),
          **dict.fromkeys(PLANNED[1:3], "DataError: ROI must contain at least 100 pixels, got 81")}),
        # The skin seed (62, 62, 5, 5) crosses the frame's edge.
        (RoiBox(60, 60, 10, 10),
         {**dict.fromkeys(PLANNED[:4], "DataError: ROI for frame 0 exceeds the frame bounds"),
          **dict.fromkeys(PLANNED[1:3], "DataError: skin seed RoiBox(x=62, y=62, w=5, h=5) of ROI "
                                        "RoiBox(x=60, y=60, w=10, h=10) lies outside the 64x64 frame")}),
        # The skin seed (57, 57, 6, 6) lies inside the frame, the box does not.
        (RoiBox(54, 54, 12, 12), dict.fromkeys(PLANNED[:4], "DataError: ROI for frame 0 exceeds the frame bounds")),
    ],
    ids=["none", "mask_over_box", "skin_under_100_px", "skin_fit_before_bounds", "skin_seed_off_frame",
         "skin_seed_inside_box_off_frame"],
)
def test_a_failed_feature_fails_alone(passes, entry, failures, tmp_path):
    frames = np.random.default_rng(5).integers(0, 256, size=(12, 64, 64, 3), dtype=np.uint8)
    frames[:, 16:48, 16:48] = (180, 120, 100)
    write_rvid(64, 64, 20, len(frames), [frames], tmp_path / "video.rvid")
    bundle = SequenceBundle(bench.read_rvid(tmp_path / "video.rvid"), RoiTrack((0,), (entry,)), tmp_path)
    cache = {}
    features = bench.SequenceFeatures(cache, lambda: bundle, PLANNED)
    errors = {}
    for key in PLANNED:
        try:
            features[key]
        except DataError as exc:
            errors[key] = f"{type(exc).__name__}: {exc}"
    assert errors == {**failures, ("background", 100): NO_BACKGROUND}
    # Each failure is stored beside the features, and raised again without another pass.
    assert set(cache) == set(PLANNED)
    assert {key for key, value in cache.items() if isinstance(value, DataError)} == set(errors)
    for key, error in errors.items():
        with pytest.raises(DataError) as again:
            features[key]
        assert f"{type(again.value).__name__}: {again.value}" == error
    assert passes == [(tmp_path.name, set(PLANNED))]


def test_chrom_and_ssr_share_one_pixel_pass(protocol, peaks_dataset, reads):
    # CHROM reads a selection's means and SSR its correlations too: planned
    # before the first evaluation, both come from one pass per video.
    store = FeatureStore(peaks_dataset)
    selection = {"strategy": "skin", "skin_tau": 0.3}
    store.plan([("corr", "skin", 0.3)])
    evaluate(protocol, "train", "chrom", peaks_dataset, params=selection, store=store)
    shared = evaluate(protocol, "train", "ssr", peaks_dataset, params=selection, store=store)
    assert reads["video"] == {"seq000": 1, "seq001": 1}
    assert shared == evaluate(protocol, "train", "ssr", peaks_dataset, params=selection)


def test_a_stored_corr_trace_serves_the_rgb_trace(protocol, small_dataset, passes):
    # SSR stores the selection's "corr" trace, which holds the means CHROM reads: CHROM reads no video.
    store = FeatureStore(small_dataset)
    selection = {"strategy": "skin", "skin_tau": 0.3}
    evaluate(protocol, "train", "ssr", small_dataset, params=selection, store=store)
    served = evaluate(protocol, "train", "chrom", small_dataset, params=selection, store=store)
    assert passes == [("seq000", {("corr", "skin", 0.3)}), ("seq001", {("corr", "skin", 0.3)})]
    assert served == evaluate(protocol, "train", "chrom", small_dataset, params=selection)


def test_a_stored_corr_failure_is_raised_for_the_rgb_trace(passes, tmp_path):
    frames = np.random.default_rng(5).integers(0, 256, size=(12, 64, 64, 3), dtype=np.uint8)
    write_rvid(64, 64, 20, len(frames), [frames], tmp_path / "video.rvid")
    track = RoiTrack((0,), (RoiBox(16, 16, 32, 32),))
    features = bench.SequenceFeatures.of(SequenceBundle(bench.read_rvid(tmp_path / "video.rvid"), track, tmp_path))
    for kind in ("corr", "rgb"):
        with pytest.raises(DataError, match="strategy 'mask' requires landmark ROI entries"):
            features[pixel_key(kind, "mask", 0.3)]
    assert passes == [(tmp_path.name, {("corr", "mask", None)})]


@pytest.fixture(scope="module")
def short_bundle():
    return synth_bundle(SynthConfig(duration_s=4.0, seed=11))


#: Draws for every selection and background field a parameter class may have.
FEATURE_FIELDS = {"strategy": st.sampled_from(STRATEGIES), "skin_tau": st.floats(0.05, 0.95),
                  "rectify": st.booleans(), "background_margin": st.integers(0, 40)}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_each_entry_plans_the_features_its_pulse_reads(short_bundle, passes, algorithm, data):
    # An entry that plans less than its pulse reads costs a second pass per video; one that plans more, a wasted one.
    cls, pulse_fn, _, reads = ALGORITHMS[algorithm]
    names = {f.name for f in dataclasses.fields(cls)}
    params = cls(**{name: data.draw(field, label=name) for name, field in FEATURE_FIELDS.items() if name in names})
    passes.clear()
    try:
        pulse_fn(bench.SequenceFeatures.of(short_bundle), params)
    except EXPECTED_ERRORS:
        pass
    assert {key for _, keys in passes for key in keys} == set(reads(params))


def bits(value, name):
    """A field of a feature, as bytes when it is an array."""
    field = getattr(value, name)
    return field.tobytes() if isinstance(field, np.ndarray) else field


def test_each_key_gives_the_feature_its_computation_gives(short_bundle):
    # Every kind of key, served by one accessor, is bit-equal to the function that computes it.
    features = bench.SequenceFeatures.of(short_bundle)
    assert features[("truth",)] == bench.load_ground_truth(short_bundle)
    keys = [pixel_key(kind, strategy, 0.3) for kind in ("rgb", "corr") for strategy in STRATEGIES]
    keys += [("background", 0), ("background", 10)]
    for key in keys:
        served, fresh = features[key], pixel_features(short_bundle.sequence, short_bundle.roi, [key])[key]
        names = [f.name for f in dataclasses.fields(fresh)]
        assert type(served) is type(fresh) and [bits(served, n) for n in names] == [bits(fresh, n) for n in names]
        if key[0] == "corr":
            for got, want in zip(features[pixel_key("eigens", *key[1:])], trace_eigens(fresh)):
                assert got.tobytes() == want.tobytes(), key
    # The threshold counts only under "skin".
    assert pixel_key("rgb", "bbox", 0.2) == pixel_key("rgb", "bbox", 0.9) == ("rgb", "bbox", None)
    assert pixel_key("eigens", "skin", 0.2) == ("eigens", "skin", 0.2)


@pytest.mark.parametrize(
    "key",
    [("rbg", "skin", 0.3), ("background", "10"), ("background",), ("rgb", "skin", None), ("rgb", "bbox", 0.3)],
    ids=["unknown_kind", "margin_as_text", "no_margin", "skin_without_tau", "tau_under_bbox"],
)
def test_a_key_that_names_no_feature_raises_a_value_error_naming_it(short_bundle, key):
    with pytest.raises(ValueError, match=f"^not a pixel feature key: {re.escape(repr(key))}; "):
        pixel_features(short_bundle.sequence, short_bundle.roi, [("rgb", "bbox", None), key])


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


def train_copy(small_dataset, root) -> ProtocolIndex:
    """seq000-seq002 of ``small_dataset`` copied under ``root``, all three in the train split; the test split's
    seq003 is not copied, as only the train split is evaluated."""
    for seq in ("seq000", "seq001", "seq002"):
        shutil.copytree(small_dataset / seq, root / seq)
    entries = [ProtocolEntry(seq, "train", "studio") for seq in ("seq000", "seq001", "seq002")]
    return ProtocolIndex((*entries, ProtocolEntry("seq003", "test", "studio")), name="three")


@pytest.fixture
def bad_bvp(small_dataset, tmp_path):
    """Three train bundles without gt.json, so truth comes from the BVP; row 51 of seq002's bvp.csv is bad."""
    protocol = train_copy(small_dataset, tmp_path)
    for gt in tmp_path.glob("*/gt.json"):
        gt.unlink()
    bvp = tmp_path / "seq002" / "bvp.csv"
    lines = bvp.read_text().splitlines(keepends=True)
    bvp.write_text("".join([*lines[:50], "0.5,oops\n", *lines[51:]]))
    return protocol, tmp_path, f"FormatError: {bvp}: row 51: unparsable number"


def failed_details(report) -> list:
    return [row.detail for row in report.sequences if row.status == "failed"]


def test_search_reads_a_sequence_with_a_bad_bvp_once(bad_bvp, reads):
    protocol, root, reason = bad_bvp
    stages = [{"grid": {"window_s": [0.8, 1.6, 3.2]}}, {"grid": {"band_lo": [0.5, 0.67], "band_hi": [3.0, 4.0]}}]
    result = greedy_search(stages_of(stages), protocol, "chrom", root, objective="neg_rmse")
    # Its truth fails once, on the first candidate; the other candidates raise the stored failure.
    assert reads["video"] == reads["bvp"] == {"seq000": 1, "seq001": 1, "seq002": 1}
    for row in (row for stage in result.trace for row in stage["evaluations"]):
        fresh = evaluate(protocol, "train", "chrom", root, params=row["params"])
        assert failed_details(fresh) == [reason]
        assert row["objective_value"] == -fresh.rmse, row["params"]


def test_a_stored_failure_is_raised_again_in_every_report_row(bad_bvp, reads):
    protocol, root, reason = bad_bvp
    store = FeatureStore(root)
    reports = [evaluate(protocol, "train", algorithm, root, store=store) for algorithm in sorted(ALGORITHMS)]
    assert [failed_details(report) for report in reports] == [[reason]] * len(ALGORITHMS)
    assert reads["bvp"] == {"seq000": 1, "seq001": 1, "seq002": 1}


def test_a_failing_eigen_decomposition_is_computed_once(small_dataset, tmp_path, monkeypatch):
    protocol = train_copy(small_dataset, tmp_path)
    # A 1x2 px box: SSR's selection has 2 pixels in every frame, too few for a correlation's eigen-decomposition.
    write_roi_track(RoiTrack((0,), (RoiBox(16, 16, 1, 2),)), tmp_path / "seq002" / "roi.csv")
    calls = []
    original = bench.trace_eigens

    def counting(trace):
        calls.append(len(trace))
        return original(trace)

    monkeypatch.setattr(bench, "trace_eigens", counting)
    store = FeatureStore(tmp_path)
    reports = [evaluate(protocol, "train", "ssr", tmp_path, params={"strategy": "bbox", "window_l": window}, store=store)
               for window in (16, 20)]
    assert len(calls) == 3, "one eigen-decomposition per sequence, failed or not"
    assert [failed_details(report) for report in reports] == [["DataError: need at least 3 pixels, got 2"]] * 2


def test_memo_stores_an_expected_failure_and_raises_copies_of_it():
    calls = []

    def compute():
        calls.append(None)
        raise FormatError("row 3: unparsable number", path="bvp.csv", offset=7)

    cache, raised = {}, []
    for _ in range(2):
        with pytest.raises(FormatError) as err:
            _memo(cache, "truth", compute)
        raised.append(err.value)
    assert len(calls) == 1
    assert [(type(e), str(e), e.path, e.offset) for e in raised] == [
        (FormatError, "bvp.csv: row 3: unparsable number", "bvp.csv", 7)] * 2
    stored = cache["truth"]
    assert stored.__traceback__ is None and stored.__context__ is None
    assert all(e is not stored for e in raised) and raised[0] is not raised[1]
    # Outcomes are stored as compute() returns them, failures included; a programming error propagates unstored.
    assert _memo(cache, "a", lambda: {"a": 1.0, "b": DataError("no b")}) == 1.0
    with pytest.raises(DataError, match="no b"):
        _memo(cache, "b", compute)
    with pytest.raises(KeyError):
        _memo(cache, "bug", lambda: {}["x"])
    assert "bug" not in cache and len(calls) == 1
