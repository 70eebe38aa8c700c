"""Evaluation harness: parameter plumbing, aggregation, reports, search."""

import dataclasses
import json
import math
import re
import shutil
import threading

import numpy as np
import pytest

from rppgbench.bench import (
    ALGORITHMS,
    REFERENCE_RESULTS,
    EvalReport,
    SearchStage,
    SequenceBundle,
    SequenceResult,
    build_params,
    emit_report,
    evaluate,
    extract_pulse,
    greedy_search,
    load_bundle,
    load_ground_truth,
    read_report,
)
from rppgbench.chrom import ChromParams
from rppgbench.errors import DataError, FormatError
from rppgbench.io import ProtocolEntry, ProtocolIndex, load_protocol
from rppgbench.licvpr import LiParams
from rppgbench.signals import BandHz
from rppgbench.ssr import SsrParams
from rppgbench.synth import SynthConfig

from conftest import entry_at, read_frames, rvid_sequence, synth_bundle


def perfect(features, params):
    """Stub extractor that answers with the recorded ground truth."""
    return features[("truth",)].bpm


def biased(features, params):
    return features[("truth",)].bpm * params.scale + params.bias


@pytest.fixture(scope="module")
def protocol(small_dataset):
    return load_protocol(small_dataset / "protocol.csv")


@pytest.fixture
def stubs(register_stub):
    """The tags of the ``perfect`` and ``biased`` stubs, registered for one test."""
    return register_stub(perfect), register_stub(biased)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_perfect_stub_scores_perfectly(protocol, small_dataset, stubs):
    report = evaluate(protocol, "test", "perfect", small_dataset)
    assert report.rmse == 0.0
    assert report.pearson_rho == pytest.approx(1.0, abs=1e-12)
    assert report.ok_count == 4
    assert report.failed_count == 0
    assert report.algorithm == "perfect"
    assert report.split == "test"
    assert report.params == {"bias": 0.0, "scale": 1.0}
    assert [s.status for s in report.sequences] == ["ok"] * 4


def test_row_order_never_matters(protocol, small_dataset, stubs):
    reversed_protocol = ProtocolIndex(entries=tuple(reversed(protocol.entries)), name=protocol.name)
    a = evaluate(protocol, "test", "perfect", small_dataset)
    b = evaluate(reversed_protocol, "test", "perfect", small_dataset)
    assert a.sequences == b.sequences
    assert a.rmse == b.rmse
    assert a.pearson_rho == b.pearson_rho


def test_subject_overlap_across_splits_rejected():
    # A protocol is valid by construction: evaluate never sees a leaky split.
    entries = (
        ProtocolEntry("seq000", "train", "studio", subject_id="subj000"),
        ProtocolEntry("seq001", "train", "studio", subject_id="subj001"),
        ProtocolEntry("seq002", "test", "studio", subject_id="subj000"),
        ProtocolEntry("seq003", "test", "studio", subject_id="subj003"),
    )
    with pytest.raises(DataError, match=re.escape("subjects ['subj000'] appear in both splits")):
        ProtocolIndex(entries, name="leaky")


def test_failures_are_isolated_per_sequence(protocol, small_dataset, register_stub):
    def flaky(features, params):
        if features.bundle.directory.name == "seq003":
            raise DataError("boom")
        return features[("truth",)].bpm

    report = evaluate(protocol, "test", register_stub(flaky), small_dataset)
    assert report.ok_count == 3
    assert report.failed_count == 1
    failed = [s for s in report.sequences if s.status == "failed"]
    assert len(failed) == 1
    assert failed[0].sequence_id == "seq003"
    assert failed[0].detail == "DataError: boom"
    assert failed[0].estimated_bpm is None
    # Aggregates cover only the three survivors.
    assert report.rmse == 0.0


def test_fewer_than_two_successes_is_undefined(protocol, small_dataset, register_stub):
    def mostly_broken(features, params):
        if features.bundle.directory.name != "seq002":
            raise DataError("no signal")
        return 60.0

    with pytest.raises(DataError, match="1 of 4"):
        evaluate(protocol, "test", register_stub(mostly_broken), small_dataset)


def test_constant_estimates_leave_pearson_undefined(protocol, small_dataset, register_stub, tmp_path):
    def flat(features, params):
        return 70.0

    report = evaluate(protocol, "test", register_stub(flat), small_dataset)
    assert report.pearson_rho is None
    assert report.rmse > 0
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    emit_report(report, csv_path)
    emit_report(report, json_path)
    assert csv_path.read_text(encoding="utf-8").endswith("\npearson,\n")
    assert json.loads(json_path.read_text(encoding="utf-8"))["pearson_rho"] is None
    assert read_report(csv_path).pearson_rho is None
    assert read_report(json_path) == report


def test_bugs_propagate_out_of_evaluate_and_search(protocol, small_dataset, register_stub):
    def buggy(features, params):
        return None + 1.0

    with pytest.raises(TypeError):
        evaluate(protocol, "test", register_stub(buggy), small_dataset)
    stages = [SearchStage("bias", grid=(("bias", (0.0, 1.0)),))]
    with pytest.raises(TypeError):
        greedy_search(stages, protocol, "buggy", small_dataset, split="train")


def test_empty_split_rejected():
    # A protocol is valid by construction: evaluate never sees an empty split.
    entries = (ProtocolEntry("seq002", "test", "studio"),)
    with pytest.raises(DataError, match="split 'train' is empty"):
        ProtocolIndex(entries, name="p")


def test_unknown_algorithm_tag_rejected(protocol, small_dataset):
    with pytest.raises(ValueError, match="unknown algorithm"):
        evaluate(protocol, "test", "posnet", small_dataset)


def test_params_object_must_match_algorithm(protocol, small_dataset):
    with pytest.raises(ValueError, match="params must be"):
        evaluate(protocol, "test", "chrom", small_dataset, params=SsrParams())


def test_missing_sequence_files_fail_the_whole_run(protocol, tmp_path, stubs):
    with pytest.raises(FileNotFoundError) as exc_info:
        evaluate(protocol, "test", "perfect", tmp_path / "nowhere")
    assert "video.rvid" in str(exc_info.value)


def test_real_algorithm_hits_synthetic_truth(protocol, small_dataset):
    report = evaluate(protocol, "test", "chrom", small_dataset)
    assert report.algorithm == "chrom"
    assert report.rmse <= 1.0
    assert report.pearson_rho >= 0.99
    assert report.params["window_s"] == 1.6


def test_parallel_evaluation_is_deterministic(protocol, small_dataset):
    serial = evaluate(protocol, "test", "chrom", small_dataset, jobs=1)
    parallel = evaluate(protocol, "test", "chrom", small_dataset, jobs=3)
    assert serial == parallel


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_every_sequence_runs_on_the_calling_thread_in_id_order(protocol, small_dataset, register_stub, jobs):
    calls = []

    def recorded(features, params):
        calls.append((threading.get_ident(), features.bundle.directory.name))
        return features[("truth",)].bpm

    reversed_protocol = ProtocolIndex(entries=tuple(reversed(protocol.entries)), name=protocol.name)
    evaluate(reversed_protocol, "test", register_stub(recorded), small_dataset, jobs=jobs)
    ids = sorted(e.sequence_id for e in protocol.split_entries("test"))
    assert calls == [(threading.get_ident(), sequence_id) for sequence_id in ids]


# ---------------------------------------------------------------------------
# bundle loading
# ---------------------------------------------------------------------------

def test_load_bundle_names_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="video.rvid"):
        load_bundle(tmp_path, "seq404")


def test_ground_truth_prefers_recorded_value(small_dataset):
    bundle = load_bundle(small_dataset, "seq002")
    truth = load_ground_truth(bundle)
    assert truth.method == "synthetic"
    assert truth.bpm == 60.0


def test_ground_truth_falls_back_to_bvp_beats(small_dataset, tmp_path):
    copy = tmp_path / "seq002"
    shutil.copytree(small_dataset / "seq002", copy)
    (copy / "gt.json").unlink()
    truth = load_ground_truth(load_bundle(tmp_path, "seq002"))
    assert truth.method == "peaks"
    assert truth.bpm == pytest.approx(60.0, abs=1.0)


def test_ground_truth_is_not_counted_from_a_non_bvp_recording(small_dataset, tmp_path):
    copy = tmp_path / "seq002"
    shutil.copytree(small_dataset / "seq002", copy)
    (copy / "gt.json").unlink()
    meta = copy / "bvp_meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text(encoding="utf-8")), "signal_type": "respiration"}),
                    encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{meta}: signal_type is 'respiration'")):
        load_ground_truth(load_bundle(tmp_path, "seq002"))


def test_extract_pulse_with_dict_params(small_dataset):
    bundle = load_bundle(small_dataset, "seq002")
    pulse = extract_pulse(bundle, "chrom", {"window_s": 3.2, "strategy": "bbox"})
    assert len(pulse) == bundle.sequence.n_frames
    with pytest.raises(ValueError, match="unknown algorithm"):
        extract_pulse(bundle, "fft")


def test_licvpr_reports_the_fallback_fraction_of_its_trace(tmp_path):
    # Frames 100..119 turn the ROI gray: the skin model fitted on frame 0
    # keeps none of their pixels, so those frames fall back to the full box.
    result = synth_bundle(SynthConfig(duration_s=10.0, seed=5))
    frames = read_frames(result.sequence).copy()
    box = entry_at(result.roi, 0).bbox()
    frames[100:120, box.y:box.y + box.h, box.x:box.x + box.w] = 128
    bundle = SequenceBundle(sequence=rvid_sequence(frames), roi=result.roi, directory=tmp_path)
    licvpr = extract_pulse(bundle, "licvpr", {"strategy": "skin"})
    chrom = extract_pulse(bundle, "chrom", {"strategy": "skin"})
    assert licvpr.fallback_fraction == chrom.fallback_fraction == 20 / 200


# ---------------------------------------------------------------------------
# build_params
# ---------------------------------------------------------------------------

def test_build_params_coerces_cli_strings():
    params = build_params("chrom", {"window_s": "2.4", "numtaps": "63", "strategy": "bbox"})
    assert params.window_s == 2.4
    assert params.numtaps == 63
    assert params.strategy == "bbox"

    li = build_params("licvpr", {"rectify": "false", "ma_window": "7"})
    assert li.rectify is False
    assert li.ma_window == 7


def test_build_params_rejects_bad_values():
    with pytest.raises(ValueError, match="rectify"):
        build_params("licvpr", {"rectify": "maybe"})
    with pytest.raises(ValueError, match="numtaps"):
        build_params("chrom", {"numtaps": "63.5"})
    with pytest.raises(ValueError, match="window_s"):
        build_params("chrom", {"window_s": "wide"})
    with pytest.raises(ValueError, match="unknown parameter"):
        build_params("chrom", {"windw_s": 2.0})
    with pytest.raises(ValueError, match="unknown parameter"):
        build_params("chrom", {"band": [0.5, 3.0]})


def test_build_params_band_edges():
    lo_only = build_params("chrom", {"band_lo": 0.5})
    assert lo_only.band == BandHz(0.5, 4.0)
    both = build_params("licvpr", {"band_lo": "0.7", "band_hi": "3.5"})
    assert both.band == BandHz(0.7, 3.5)
    with pytest.raises(ValueError, match="unknown parameter 'band_lo'"):
        build_params("ssr", {"band_lo": 0.5})


def test_build_params_integer_accepts_whole_floats():
    assert build_params("chrom", {"numtaps": 63.0}).numtaps == 63


def test_build_params_optional_integer_field():
    assert build_params("ssr", {"window_l": "16.0"}).window_l == 16
    assert build_params("ssr", {"window_l": "null"}).window_l is None
    for bad in ("abc", "16.5", "true", 16.5):
        with pytest.raises(ValueError, match="window_l expects an integer"):
            build_params("ssr", {"window_l": bad})
    with pytest.raises(ValueError, match="window_l must be an integer"):
        SsrParams(window_l=16.0)


def test_params_roundtrip_through_dict():
    params = ChromParams(window_s=2.0, band_lo=0.5, band_hi=3.0, numtaps=63)
    flat = dataclasses.asdict(params)
    assert flat["band_lo"] == 0.5 and flat["band_hi"] == 3.0
    assert build_params("chrom", flat) == params


def test_build_params_band_edges_coerced_like_float_fields():
    with pytest.raises(ValueError, match="band_lo expects a finite number"):
        build_params("chrom", {"band_lo": "true"})
    with pytest.raises(ValueError, match="band_hi expects a finite number"):
        build_params("licvpr", {"band_hi": "NaN"})
    with pytest.raises(ValueError, match="band must satisfy"):
        build_params("chrom", {"band_lo": 4.0})


def test_build_params_keeps_big_integers_exact():
    big = "1" * 400
    assert build_params("chrom", {"numtaps": big}).numtaps == int(big)
    with pytest.raises(ValueError, match="window_s expects a finite number"):
        build_params("chrom", {"window_s": big})


@pytest.mark.parametrize(
    ("algorithm", "overrides", "match"),
    [
        ("chrom", {"strategy": "foo"}, "unknown strategy 'foo'"),
        ("licvpr", {"strategy": "foo"}, "unknown strategy 'foo'"),
        ("ssr", {"strategy": "foo"}, "unknown strategy 'foo'"),
        ("licvpr", {"skin_tau": 1.0}, "skin_tau"),
        ("chrom", {"numtaps": 2}, "numtaps must be at least 3"),
        ("ssr", {"window_l": 7}, "window_l must be an integer, even"),
    ],
)
def test_params_reject_values_no_run_accepts(algorithm, overrides, match):
    with pytest.raises(ValueError, match=match):
        build_params(algorithm, overrides)


@pytest.mark.parametrize(
    ("cls", "fields", "named"),
    [
        (ChromParams, {"window_s": math.inf}, "window_s=inf"),
        (ChromParams, {"window_s": math.nan}, "window_s=nan"),
        (ChromParams, {"numtaps": math.inf}, "numtaps=inf"),
        (LiParams, {"segment_s": math.inf}, "segment_s=inf"),
        (LiParams, {"detrend_lambda": math.nan}, "detrend_lambda=nan"),
        (LiParams, {"mu": np.float64(-math.inf), "skin_tau": math.nan}, "mu=-inf, skin_tau=nan"),
        (SsrParams, {"degeneracy_eps": math.nan}, "degeneracy_eps=nan"),
    ],
)
def test_params_reject_non_finite_floats(cls, fields, named):
    # Built directly, as a library caller would; the CLI's coercion rejects these earlier.
    with pytest.raises(ValueError, match=re.escape(f"parameters must be finite, got {named}")) as info:
        cls(**fields)
    assert not isinstance(info.value, DataError)


# ---------------------------------------------------------------------------
# reports on disk
# ---------------------------------------------------------------------------

def test_json_report_roundtrip(protocol, small_dataset, tmp_path):
    report = evaluate(protocol, "test", "chrom", small_dataset)
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert read_report(path) == report


def test_csv_report_roundtrip(protocol, small_dataset, tmp_path, stubs):
    report = evaluate(protocol, "test", "perfect", small_dataset)
    path = tmp_path / "report.csv"
    emit_report(report, path)
    back = read_report(path)
    rows, rmse_value, pearson_value = back.sequences, back.rmse, back.pearson_rho
    assert rows == report.sequences
    assert rmse_value == report.rmse
    assert pearson_value == report.pearson_rho


def test_csv_report_roundtrip_keeps_non_ascii_detail(tmp_path):
    report = EvalReport(
        protocol="",
        algorithm="",
        split="",
        params={},
        sequences=(
            SequenceResult("s1", "ok", 60.0, 61.0),
            SequenceResult("s2", "failed", None, None, "FormatError: d\u00e9/s2/roi.csv: row 1: exceeds"),
            SequenceResult("s3", "ok", 70.0, 69.0),
        ),
        rmse=1.0,
        pearson_rho=1.0,
    )
    path = tmp_path / "report.csv"
    emit_report(report, path)
    assert read_report(path) == report


def test_csv_report_roundtrip_with_sequences_named_like_the_trailer(tmp_path):
    # Only a row of exactly two cells is a trailer row; a sequence row has five.
    report = EvalReport(
        protocol="",
        algorithm="",
        split="",
        params={},
        sequences=(
            SequenceResult("pearson", "ok", 60.0, 61.0),
            SequenceResult("rmse", "ok", 70.0, 69.0),
            SequenceResult("s3", "failed", None, None, "DataError: boom"),
        ),
        rmse=1.0,
        pearson_rho=1.0,
    )
    path = tmp_path / "report.csv"
    emit_report(report, path)
    assert read_report(path) == report


def test_csv_report_aggregates_recomputable(protocol, small_dataset, tmp_path):
    report = evaluate(protocol, "test", "licvpr", small_dataset)
    path = tmp_path / "report.csv"
    emit_report(report, path)
    back = read_report(path)
    rows, rmse_value = back.sequences, back.rmse
    ok = [r for r in rows if r.status == "ok"]
    err = np.array([r.estimated_bpm for r in ok]) - np.array([r.ground_truth_bpm for r in ok])
    assert np.sqrt(np.mean(err**2)) == pytest.approx(rmse_value, rel=1e-9)


def test_report_format_guards(tmp_path):
    report = EvalReport(
        protocol="p",
        algorithm="a",
        split="test",
        params={},
        sequences=(
            SequenceResult("s1", "ok", 60.0, 61.0),
            SequenceResult("s2", "ok", 70.0, 69.0),
        ),
        rmse=1.0,
        pearson_rho=1.0,
    )
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(report, tmp_path / "report.xml")
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,report\n", encoding="ascii")
    with pytest.raises(ValueError, match="missing report header"):
        read_report(bad)
    headless = tmp_path / "trailerless.csv"
    headless.write_text("sequence_id,status,estimated_bpm,ground_truth_bpm,detail\n", encoding="ascii")
    with pytest.raises(ValueError, match="trailer"):
        read_report(headless)


@pytest.mark.parametrize(
    "row",
    [
        "s1,ok", "s1,ok,fast,61.0,", "s1,bogus,60.0,61.0,", "rmse", "pearson,high",
        # A status that disagrees with its numbers: "ok" needs both, "failed" neither.
        "s1,ok,,,", "s1,ok,60.0,,", "s1,failed,60.0,61.0,boom", "s1,failed,,61.0,boom",
    ],
)
def test_report_rows_that_do_not_parse_name_the_row(tmp_path, row):
    path = tmp_path / "report.csv"
    path.write_text(
        f"sequence_id,status,estimated_bpm,ground_truth_bpm,detail\ns0,ok,60.0,61.0,\n{row}\nrmse,1.0\npearson,1.0\n",
        encoding="ascii",
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 3")):
        read_report(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: {},
        lambda payload: [],
        lambda payload: {**payload, "sequences": [{"sequence_id": "s1", "estimated_bpm": 60.0, "ground_truth_bpm": 61.0}]},
    ],
    ids=["empty-object", "list", "row-without-status"],
)
def test_malformed_json_report_names_the_path(tmp_path, corrupt):
    report = EvalReport("p", "a", "test", {}, (SequenceResult("s1", "ok", 60.0, 61.0),), 1.0, None)
    path = tmp_path / "report.json"
    emit_report(report, path)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not a JSON report")):
        read_report(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: {**payload, "rmse": "x"},
        lambda payload: {**payload, "sequences": [{**payload["sequences"][0], "status": "bogus"}]},
        lambda payload: {**payload, "sequences": [{**payload["sequences"][0], "estimated_bpm": "fast"}]},
        lambda payload: {**payload, "sequences": [{**payload["sequences"][0], "ground_truth_bpm": None}]},
        lambda payload: {**payload, "sequences": [{**payload["sequences"][0], "status": "failed"}]},
        # Integers no float can hold: a CSV written from them would read back inf.
        lambda payload: {**payload, "rmse": 10**400},
        lambda payload: {**payload, "sequences": [{**payload["sequences"][0], "estimated_bpm": -10**400}]},
    ],
    ids=["rmse-string", "unknown-status", "estimate-string", "ok-without-truth", "failed-with-numbers",
         "rmse-huge-int", "estimate-huge-int"],
)
def test_json_report_values_are_checked(tmp_path, corrupt):
    report = EvalReport("p", "a", "test", {}, (SequenceResult("s1", "ok", 60.0, 61.0),), 1.0, None)
    path = tmp_path / "report.json"
    emit_report(report, path)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not a JSON report: ValueError")):
        read_report(path)


# ---------------------------------------------------------------------------
# greedy stage-wise search
# ---------------------------------------------------------------------------

def test_greedy_search_finds_known_optimum(protocol, small_dataset, stubs):
    stages = [
        SearchStage("bias", grid=(("bias", (-2.0, 0.0, 3.0)),)),
        SearchStage("scale", grid=(("scale", (1.02, 1.0)),)),
    ]
    result = greedy_search(
        stages, protocol, "biased", small_dataset, objective="neg_rmse", split="train"
    )
    assert result.best_params == {"bias": 0.0, "scale": 1.0}
    assert result.n_evaluations == 5  # 3 + 2, nothing more
    assert [t["stage"] for t in result.trace] == ["bias", "scale"]
    assert result.trace[0]["selected"] == {"bias": 0.0}
    assert result.trace[1]["objective_value"] == 0.0


def test_greedy_search_tie_keeps_first_candidate(protocol, small_dataset, stubs):
    # Both biases leave correlation at exactly 1, so the first stays.
    stages = [SearchStage("bias", grid=(("bias", (1.0, -1.0)),))]
    result = greedy_search(
        stages, protocol, "biased", small_dataset, objective="pearson", split="train"
    )
    assert result.best_params == {"bias": 1.0}
    assert result.n_evaluations == 2


def test_greedy_search_multi_parameter_stage(protocol, small_dataset, stubs):
    stages = [SearchStage("joint", grid=(("bias", (0.0, 2.0)), ("scale", (1.0, 0.9))))]
    result = greedy_search(
        stages, protocol, "biased", small_dataset, objective="neg_rmse", split="train"
    )
    assert result.n_evaluations == 4
    assert result.best_params == {"bias": 0.0, "scale": 1.0}


def test_greedy_search_all_failures_name_the_stage(protocol, small_dataset, register_stub):
    def broken(features, params):
        raise DataError("dead")

    stages = [SearchStage("warmup", grid=(("bias", (0.0, 1.0)),))]
    with pytest.raises(DataError, match="warmup"):
        greedy_search(stages, protocol, register_stub(broken), small_dataset, split="train")


def test_greedy_search_records_candidate_errors(protocol, small_dataset, register_stub):
    def picky(features, params):
        if params.bias > 0:
            raise DataError("dead")
        return features[("truth",)].bpm + params.bias

    stages = [SearchStage("bias", grid=(("bias", (1.0, 0.0)),))]
    result = greedy_search(
        stages, protocol, register_stub(picky), small_dataset, objective="neg_rmse", split="train"
    )
    rows = result.trace[0]["evaluations"]
    assert rows[0]["objective_value"] is None
    assert rows[0]["error"] == (
        "DataError: only 0 of 2 sequences succeeded; aggregates need at least 2; "
        "failed: seq000 (DataError: dead), seq001 (DataError: dead)"
    )
    assert rows[1]["error"] is None
    assert result.best_params == {"bias": 0.0}


def test_greedy_search_undefined_pearson_fails_the_candidate(protocol, small_dataset, stubs):
    # scale 0 answers the bias for every sequence: no correlation exists.
    stages = [SearchStage("scale", grid=(("scale", (0.0, 1.0)),))]
    result = greedy_search(stages, protocol, "biased", small_dataset, objective="pearson", split="train")
    rows = result.trace[0]["evaluations"]
    assert rows[0]["error"] == "UndefinedCorrelationError: correlation of a constant vector is undefined"
    assert rows[0]["objective_value"] is None
    assert result.best_params == {"scale": 1.0}


def test_greedy_search_stage_validation(protocol, small_dataset, stubs):
    dup = [
        SearchStage("a", grid=(("bias", (0.0,)),)),
        SearchStage("b", grid=(("bias", (1.0,)),)),
    ]
    with pytest.raises(ValueError, match="more than one stage"):
        greedy_search(dup, protocol, "biased", small_dataset)
    with pytest.raises(ValueError, match="at least one"):
        greedy_search([], protocol, "biased", small_dataset)
    with pytest.raises(ValueError, match="objective"):
        greedy_search(
            [SearchStage("a", grid=(("bias", (0.0,)),))],
            protocol,
            "biased",
            small_dataset,
            objective="rmse",
        )


def test_greedy_search_surfaces_typos_before_evaluating(protocol, small_dataset):
    stages = [SearchStage("a", grid=(("windw_s", (1.6,)),))]
    with pytest.raises(ValueError, match="unknown parameter"):
        greedy_search(stages, protocol, "chrom", small_dataset)


def test_greedy_search_rejects_bad_defaults_before_evaluating(protocol, tmp_path):
    # The root holds no bundles: reaching any evaluation would fail differently.
    stages = [SearchStage("a", grid=(("window_s", (1.6,)),))]
    with pytest.raises(ValueError, match="unknown strategy"):
        greedy_search(stages, protocol, "chrom", tmp_path, defaults={"strategy": "foo"})



def test_greedy_search_with_registry_algorithm(protocol, small_dataset):
    stages = [SearchStage("window", grid=(("window_s", (1.6, 3.2)),))]
    result = greedy_search(
        stages, protocol, "chrom", small_dataset, objective="neg_rmse", split="train"
    )
    assert result.n_evaluations == 2
    assert result.best_params["window_s"] in (1.6, 3.2)
    assert result.to_jsonable()["n_evaluations"] == 2


def test_search_stage_helpers():
    stage = SearchStage.from_dict({"name": "s", "grid": {"bias": [1, 2], "scale": [3]}})
    assert stage.grid == (("bias", (1, 2)), ("scale", (3,)))
    unnamed = SearchStage.from_dict({"grid": {"bias": [1]}}, default_name="stage0")
    assert unnamed.name == "stage0"
    with pytest.raises(DataError, match="empty grid"):
        SearchStage("s", grid=())
    with pytest.raises(DataError, match="no candidates"):
        SearchStage("s", grid=(("bias", ()),))


@pytest.mark.parametrize(
    "payload",
    [["bias", [1]], {"grid": [["bias", [1]]]}, {"grid": {"bias": "12"}}],
    ids=["non-object-stage", "list-grid", "string-grid-value"],
)
def test_search_stage_from_dict_rejects_malformed_stages(payload):
    with pytest.raises(DataError, match="'stage0' must be an object with a 'grid' mapping to lists"):
        SearchStage.from_dict(payload, default_name="stage0")


# ---------------------------------------------------------------------------
# reference numbers
# ---------------------------------------------------------------------------

def test_reference_tables_are_complete():
    assert set(REFERENCE_RESULTS) == {
        "mahnob-527",
        "mahnob-split",
        "cohface-studio",
        "cross-database",
        "cohface-natural-mismatch",
        "cohface-roi",
    }
    for table in REFERENCE_RESULTS.values():
        assert set(table) == {"licvpr", "chrom", "ssr"}


def test_reference_spot_values():
    assert REFERENCE_RESULTS["mahnob-527"]["licvpr"] == {"rmse_bpm": 8.12, "pearson_rho": 0.70}
    assert REFERENCE_RESULTS["mahnob-527"]["chrom"]["rmse_bpm"] == 15.40
    assert REFERENCE_RESULTS["cohface-roi"]["ssr"]["mask"] == 0.65
    assert REFERENCE_RESULTS["cross-database"]["chrom"]["mahnob_to_cohface"] == 0.51


def test_algorithm_registry_shape():
    assert set(ALGORITHMS) == {"chrom", "licvpr", "ssr"}
    for cls, pulse_fn, run_fn, reads in ALGORITHMS.values():
        assert callable(pulse_fn) and callable(run_fn) and callable(reads)
        assert cls() is not None
