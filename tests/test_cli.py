"""Command-line behavior: exit codes, output files, determinism."""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rppgbench import bench
from rppgbench.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from rppgbench.io import write_rvid
from rppgbench.synth import SynthConfig, build_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_bundle")
    assert main(["synth", "--out", str(root), "--seed", "7"]) == EXIT_OK
    return root / "seq000"


# ---------------------------------------------------------------------------
# the happy path, end to end
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["chrom", "licvpr", "ssr"])
def test_synth_pulse_hr_chain(synth_bundle, tmp_path, capsys, algo):
    pulse_csv = tmp_path / f"{algo}.csv"
    code, _, _ = run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        algo,
        "--out",
        str(pulse_csv),
    )
    assert code == EXIT_OK
    code, out, _ = run(capsys, "hr", str(pulse_csv))
    assert code == EXIT_OK
    assert float(out.strip()) == pytest.approx(72.0, abs=0.6)


def test_pulse_default_output_path(synth_bundle, capsys):
    code, _, _ = run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "chrom",
    )
    assert code == EXIT_OK
    assert (synth_bundle / "pulse.csv").exists()


def test_pulse_accepts_prefixed_overrides(synth_bundle, tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "chrom",
        "--set",
        "chrom.window_s=3.2",
        "--set",
        "strategy=bbox",
        "--out",
        str(tmp_path / "p.csv"),
    )
    assert code == EXIT_OK


def test_trace_writes_per_frame_rows(synth_bundle, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run(
        capsys,
        "trace",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "frame,r_mean,g_mean,b_mean,pixel_count,fallback"
    assert len(lines) == 1 + 400  # default 20 s at 20 fps
    first = lines[1].split(",")
    assert first[0] == "0" and first[5] == "0"
    # The mean cells must be plain decimal text, parseable and in range.
    for cell in first[1:4]:
        assert 0.0 <= float(cell) <= 255.0
    assert int(first[4]) > 0


def test_eval_writes_report_and_summary(small_dataset, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, _ = run(
        capsys,
        "eval",
        "--root",
        str(small_dataset),
        "--protocol",
        str(small_dataset / "protocol.csv"),
        "--algo",
        "chrom",
        "--out",
        str(out),
        "--jobs",
        "1",
    )
    assert code == EXIT_OK
    assert out.exists()
    assert stdout.startswith("rmse=")
    assert "ok=4 failed=0" in stdout


def test_search_selects_and_reports(small_dataset, tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(
        json.dumps([{"name": "window", "grid": {"window_s": [1.6, 3.2]}}]),
        encoding="utf-8",
    )
    out = tmp_path / "search.json"
    code, stdout, _ = run(
        capsys,
        "search",
        "--root",
        str(small_dataset),
        "--protocol",
        str(small_dataset / "protocol.csv"),
        "--algo",
        "chrom",
        "--stages",
        str(stages),
        "--objective",
        "neg_rmse",
        "--out",
        str(out),
        "--jobs",
        "1",
    )
    assert code == EXIT_OK
    assert stdout.startswith("evaluations=2 best: window_s=")
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["n_evaluations"] == 2
    assert [t["stage"] for t in payload["trace"]] == ["window"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_synth_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["synth", "--hr", "80", "--duration", "10", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    for name in ("video.rvid", "roi.csv", "bvp.csv", "bvp_meta.json", "gt.json"):
        assert (a / "seq000" / name).read_bytes() == (b / "seq000" / name).read_bytes()


def test_synth_without_train_split_writes_bundles_only(tmp_path):
    out = tmp_path / "cli"
    assert main(["synth", "--out", str(out), "--count", "2", "--duration", "5", "--seed", "4"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["seq000", "seq001"]
    ref = tmp_path / "ref"
    assert build_dataset(ref, [(72.0, "test")] * 2, base_config=SynthConfig(duration_s=5.0), base_seed=4) is None
    for sid in ("seq000", "seq001"):
        assert (out / sid / "video.rvid").read_bytes() == (ref / sid / "video.rvid").read_bytes()


def test_eval_reruns_are_byte_identical_across_jobs(small_dataset, tmp_path, capsys):
    outs = []
    for name, jobs in (("r1.csv", "1"), ("r2.csv", "2"), ("r3.csv", "2")):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "eval",
            "--root",
            str(small_dataset),
            "--protocol",
            str(small_dataset / "protocol.csv"),
            "--algo",
            "licvpr",
            "--out",
            str(out),
            "--jobs",
            jobs,
        )
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------

def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "synth", "--out", "x", "--frobnicate")
    assert code == EXIT_USAGE
    assert "usage:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "transcode")
    assert code == EXIT_USAGE
    assert "usage:" in err


def test_synth_validation_errors(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--out", str(tmp_path / "d"), "--count", "2", "--train-count", "2"
    )
    assert code == EXIT_USAGE
    assert "train-count" in err
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"), "--hr-range", "50-110")
    assert code == EXIT_USAGE
    assert "LO:HI" in err


def test_synth_over_the_clip_limit_leaves_no_bundle_directory(tmp_path, capsys):
    out = tmp_path / "x"
    code, _, err = run(capsys, "synth", "--out", str(out), "--count", "2", "--train-count", "1",
                       "--noise-sd", "60", "--duration", "1")
    assert code == EXIT_USAGE
    assert "of pixel values clip" in err
    assert list(out.iterdir()) == []


def test_eval_missing_sequence_exits_2(small_dataset, tmp_path, capsys):
    protocol = tmp_path / "protocol.csv"
    protocol.write_text(
        "sequence_id,split,condition\n"
        "seq000,train,studio\n"
        "missing9,test,studio\n"
        "seq002,test,studio\n",
        encoding="ascii",
    )
    code, _, err = run(
        capsys,
        "eval",
        "--root",
        str(small_dataset),
        "--protocol",
        str(protocol),
        "--algo",
        "chrom",
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == EXIT_DATA
    assert "missing9" in err and "video.rvid" in err


def test_trace_with_off_frame_polygon_exits_2(synth_bundle, tmp_path, capsys):
    roi = tmp_path / "roi.csv"
    roi.write_text("0,40,10,70,10,70,40,40,40\n", encoding="ascii")
    code, _, err = run(
        capsys,
        "trace",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(roi),
        "--strategy",
        "mask",
        "--out",
        str(tmp_path / "trace.csv"),
    )
    assert code == EXIT_DATA
    assert str(roi) in err and "row 1" in err and "exceeds the 64x64 frame" in err


@pytest.mark.parametrize("strategy", ["bbox", "skin", "mask"])
@pytest.mark.parametrize("tau", ["5", "nan", "0", "1"])
def test_trace_tau_outside_the_unit_interval_exits_1(synth_bundle, tmp_path, capsys, strategy, tau):
    # Checked as `pulse --set skin_tau=...` checks it, also where the strategy does not read it.
    out = tmp_path / "trace.csv"
    code, _, err = run(
        capsys, "trace", str(synth_bundle / "video.rvid"), "--roi", str(synth_bundle / "roi.csv"),
        "--strategy", strategy, "--tau", tau, "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert f"skin_tau must lie in (0, 1), got {float(tau)}" in err
    assert not out.exists()


def test_trace_with_roi_starting_after_frame_0_exits_2(synth_bundle, tmp_path, capsys):
    roi = tmp_path / "roi.csv"
    roi.write_text("3,16,16,32,32\n", encoding="ascii")
    code, _, err = run(
        capsys, "trace", str(synth_bundle / "video.rvid"), "--roi", str(roi), "--out", str(tmp_path / "t.csv")
    )
    assert code == EXIT_DATA
    assert str(roi) in err and "row 1" in err and "frame 0" in err


def test_trace_with_directory_roi_exits_2(synth_bundle, tmp_path, capsys):
    code, _, err = run(
        capsys, "trace", str(synth_bundle / "video.rvid"), "--roi", str(tmp_path), "--out", str(tmp_path / "t.csv")
    )
    assert code == EXIT_DATA
    assert err.startswith("error:") and str(tmp_path) in err


def test_hr_on_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "pulse.csv"
    bad.write_text("t,value\n0.0,1.0\nmid,2.0\n", encoding="ascii")
    code, _, err = run(capsys, "hr", str(bad))
    assert code == EXIT_DATA
    assert "error:" in err


def test_hr_on_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "hr", str(tmp_path / "nope.csv"))
    assert code == EXIT_DATA
    assert "nope.csv" in err


def test_hr_with_empty_band_exits_1(synth_bundle, tmp_path, capsys):
    pulse_csv = tmp_path / "p.csv"
    run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "chrom",
        "--out",
        str(pulse_csv),
    )
    code, _, err = run(capsys, "hr", str(pulse_csv), "--band-lo", "12", "--band-hi", "15")
    assert code == EXIT_USAGE
    assert "empty" in err


@pytest.mark.parametrize(
    "overrides",
    [
        ["licvpr.mu=0.5"],  # prefixed for a different algorithm
        ["window_s"],  # no '='
        ["window_s=1.6", "window_s=3.2"],  # duplicate key
    ],
)
def test_override_errors_exit_1(synth_bundle, tmp_path, capsys, overrides):
    argv = [
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "chrom",
        "--out",
        str(tmp_path / "p.csv"),
    ]
    for pair in overrides:
        argv += ["--set", pair]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["abc", "16.5", "true"])
def test_non_integer_window_override_exits_1(synth_bundle, tmp_path, capsys, value):
    code, _, err = run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "ssr",
        "--set",
        f"window_l={value}",
        "--out",
        str(tmp_path / "p.csv"),
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "window_l expects an integer" in err


def test_huge_integer_override_ends_in_error_line(synth_bundle, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "ssr",
        "--set",
        "window_l=" + "1" * 400,
        "--out",
        str(tmp_path / "p.csv"),
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    ("algo", "override"),
    [("chrom", "strategy=foo"), ("licvpr", "strategy=foo"), ("chrom", "numtaps=2"), ("ssr", "window_l=7")],
)
def test_bad_static_override_exits_1_before_reading_bundles(small_dataset, tmp_path, capsys, algo, override):
    # The root holds no bundles, so reading any would exit 2.
    code, _, err = run(
        capsys,
        "eval",
        "--root",
        str(tmp_path),
        "--protocol",
        str(small_dataset / "protocol.csv"),
        "--algo",
        algo,
        "--set",
        override,
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:") and override.partition("=")[0] in err
    assert not (tmp_path / "r.csv").exists()


def test_search_with_bad_default_exits_1(small_dataset, tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"grid": {"window_s": [1.6]}}]), encoding="utf-8")
    code, _, err = run(
        capsys,
        "search",
        "--root",
        str(small_dataset),
        "--protocol",
        str(small_dataset / "protocol.csv"),
        "--algo",
        "chrom",
        "--stages",
        str(stages),
        "--set",
        "strategy=foo",
        "--out",
        str(tmp_path / "s.json"),
    )
    assert code == EXIT_USAGE
    assert "unknown strategy 'foo'" in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    ("command", "algo", "override", "code", "needle"),
    [
        ("pulse", "chrom", "window_s=1e308", EXIT_DATA, "window of inf frames exceeds"),
        ("pulse", "licvpr", "segment_s=1e308", EXIT_DATA, "need at least 2 segments, got 1"),
        ("pulse", "licvpr", "detrend_lambda=1e200", EXIT_USAGE, "detrend_lambda=1e+200"),
        ("eval", "chrom", "window_s=1e308", EXIT_DATA, "seq002 (DataError: window of inf frames exceeds"),
        ("search", "chrom", "window_s=1e308", EXIT_OK, ""),
    ],
)
def test_huge_finite_parameters_end_in_error_lines(small_dataset, tmp_path, capsys, command, algo, override, code,
                                                  needle):
    key, _, value = override.partition("=")
    bundle = small_dataset / "seq002"
    if command == "pulse":
        argv = ["pulse", str(bundle / "video.rvid"), "--roi", str(bundle / "roi.csv"), "--set", override]
    else:
        argv = [command, "--root", str(small_dataset), "--protocol", str(small_dataset / "protocol.csv")]
    if command == "eval":
        argv += ["--set", override]
    if command == "search":
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([{"grid": {key: [1.0, float(value)]}}]), encoding="utf-8")
        argv += ["--stages", str(stages)]
    out = tmp_path / ("s.json" if command == "search" else "r.json")
    code_got, _, err = run(capsys, *argv, "--algo", algo, "--out", str(out))
    assert code_got == code, err
    assert needle in err and "Traceback" not in err
    if command == "search":
        failed = json.loads(out.read_text(encoding="utf-8"))["trace"][0]["evaluations"][1]
        assert failed["objective_value"] is None and "window of inf frames exceeds" in failed["error"]


@pytest.mark.parametrize(
    ("algo", "override", "code", "needle"),
    [
        ("licvpr", "detrend_lambda=1e8", EXIT_NUMERIC, "samples with lambda=100000000.0: "),
        ("licvpr", "detrend_lambda=6e153", EXIT_NUMERIC, "samples with lambda=6e+153: "),
        ("licvpr", "order=1000000000000", EXIT_DATA, "NLMS order 1000000000000 exceeds the signal length 400"),
        ("chrom", "band_lo=5e-324", EXIT_NUMERIC, "band edge 5e-324 Hz underflows"),
    ],
)
def test_accepted_parameters_that_cannot_run_exit_2_or_3(small_dataset, capsys, tmp_path, algo, override, code, needle):
    bundle = small_dataset / "seq002"
    argv = ["pulse", str(bundle / "video.rvid"), "--roi", str(bundle / "roi.csv"), "--algo", algo, "--set", override]
    code_got, _, err = run(capsys, *argv, "--out", str(tmp_path / "p.csv"))
    assert code_got == code, err
    assert needle in err and "Traceback" not in err


def test_unsolvable_detrend_fails_each_sequence_in_eval_and_a_row_in_search(small_dataset, tmp_path, capsys):
    argv = ["--root", str(small_dataset), "--protocol", str(small_dataset / "protocol.csv"), "--algo", "licvpr"]
    code, _, err = run(capsys, "eval", *argv, "--set", "detrend_lambda=1e8", "--out", str(tmp_path / "r.json"))
    assert code == EXIT_DATA, err
    assert "only 0 of 4 sequences succeeded" in err and "Traceback" not in err
    for sid in ("seq002", "seq003", "seq004", "seq005"):
        assert f"{sid} (NumericDegeneracyError: detrending " in err
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"grid": {"detrend_lambda": [300.0, 1e8]}}]), encoding="utf-8")
    out = tmp_path / "s.json"
    code, _, err = run(capsys, "search", *argv, "--stages", str(stages), "--out", str(out))
    assert code == EXIT_OK, err
    kept, failed = json.loads(out.read_text(encoding="utf-8"))["trace"][0]["evaluations"]
    assert kept["error"] is None
    assert failed["objective_value"] is None and "(NumericDegeneracyError: detrending " in failed["error"]


def test_flat_pulse_fails_each_sequence_in_eval_and_a_row_in_search(small_dataset, tmp_path, capsys):
    # detrend_lambda=0 detrends the whole green trace away: an all-zero pulse has no heart rate
    argv = ["--root", str(small_dataset), "--protocol", str(small_dataset / "protocol.csv"), "--algo", "licvpr"]
    code, _, err = run(capsys, "eval", *argv, "--set", "detrend_lambda=0", "--out", str(tmp_path / "r.json"))
    assert code == EXIT_DATA, err
    assert "only 0 of 4 sequences succeeded" in err and "Traceback" not in err
    for sid in ("seq002", "seq003", "seq004", "seq005"):
        assert f"{sid} (NumericDegeneracyError: the pulse has no power in the band " in err
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"grid": {"detrend_lambda": [300.0, 0.0]}}]), encoding="utf-8")
    out = tmp_path / "s.json"
    code, _, err = run(capsys, "search", *argv, "--stages", str(stages), "--out", str(out))
    assert code == EXIT_OK, err
    kept, failed = json.loads(out.read_text(encoding="utf-8"))["trace"][0]["evaluations"]
    assert kept["error"] is None
    assert failed["objective_value"] is None and "(NumericDegeneracyError: the pulse has no power" in failed["error"]


def test_hr_on_all_zero_pulse_exits_3(tmp_path, capsys):
    pulse_csv = tmp_path / "p.csv"
    pulse_csv.write_text("t,value\n" + "".join(f"{i / 20!r},0.0\n" for i in range(200)), encoding="ascii")
    code, _, err = run(capsys, "hr", str(pulse_csv))
    assert code == EXIT_NUMERIC
    assert "no power in the band" in err and "Traceback" not in err


@pytest.mark.parametrize(
    ("option", "value", "field"),
    [("--duration", "inf", "duration_s=inf"), ("--noise-sd", "nan", "noise_sd=nan"),
     ("--drift-amp", "nan", "illum_drift=(0.0, nan)")],
)
def test_synth_rejects_non_finite_numbers(tmp_path, capsys, option, value, field):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"), option, value)
    assert code == EXIT_USAGE
    assert err == f"error: parameters must be finite, got {field}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    ("option", "value", "message"),
    [
        ("--duration", "1e308", "1e+308 s at 20 fps is not 1 to 4294967296 frames of an .rvid"),
        ("--duration", "3e8", "300000000.0 s at 20 fps is not 1 to 4294967296 frames of an .rvid"),
        ("--width", str((1 << 20) + 1), "frame dimensions must lie in [1, 1048576], got 1048577x64"),
        ("--height", str(1 << 40), f"frame dimensions must lie in [1, 1048576], got 64x{1 << 40}"),
    ],
    ids=["duration_overflows", "frames_past_rvid_limit", "width_past_rvid_limit", "height_past_rvid_limit"],
)
def test_synth_rejects_videos_an_rvid_cannot_hold(tmp_path, capsys, option, value, message):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"), option, value)
    assert code == EXIT_USAGE
    assert err == f"error: {message}\n"
    assert not (tmp_path / "d").exists()


def test_whole_float_and_null_window_overrides(synth_bundle, tmp_path, capsys):
    # At 20 fps the default (null) window is 20 frames.
    outputs = []
    for value in ("20", "20.0", "null"):
        out = tmp_path / f"p_{value}.csv"
        code, _, _ = run(
            capsys,
            "pulse",
            str(synth_bundle / "video.rvid"),
            "--roi",
            str(synth_bundle / "roi.csv"),
            "--algo",
            "ssr",
            "--set",
            f"window_l={value}",
            "--out",
            str(out),
        )
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_parameter_override_exits_1(synth_bundle, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "pulse",
        str(synth_bundle / "video.rvid"),
        "--roi",
        str(synth_bundle / "roi.csv"),
        "--algo",
        "chrom",
        "--set",
        "windw_s=1.6",
        "--out",
        str(tmp_path / "p.csv"),
    )
    assert code == EXIT_USAGE
    assert "unknown parameter" in err


def test_black_video_is_numeric_degeneracy(tmp_path, capsys):
    video = tmp_path / "video.rvid"
    write_rvid(16, 16, 20, 60, [np.zeros((60, 16, 16, 3), dtype=np.uint8)], video)
    roi = tmp_path / "roi.csv"
    roi.write_text("0,2,2,10,10\n", encoding="ascii")
    code, _, err = run(
        capsys,
        "pulse",
        str(video),
        "--roi",
        str(roi),
        "--algo",
        "chrom",
        "--set",
        "strategy=bbox",
        "--out",
        str(tmp_path / "p.csv"),
    )
    assert code == EXIT_NUMERIC
    assert "zero channel mean" in err


def test_search_rejects_malformed_stage_file(small_dataset, tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text("{\"grid\": {}}", encoding="utf-8")  # object, not list
    code, _, err = run(
        capsys,
        "search",
        "--root",
        str(small_dataset),
        "--protocol",
        str(small_dataset / "protocol.csv"),
        "--algo",
        "chrom",
        "--stages",
        str(stages),
        "--out",
        str(tmp_path / "s.json"),
    )
    assert code == EXIT_DATA
    assert "stages.json" in err


def test_trace_with_non_ascii_roi_exits_2(synth_bundle, tmp_path, capsys):
    roi = tmp_path / "roi.csv"
    roi.write_bytes(b"0,16,16,32,32\n1,16,16,32,3\xe92\n")
    code, _, err = run(
        capsys, "trace", str(synth_bundle / "video.rvid"), "--roi", str(roi), "--out", str(tmp_path / "t.csv")
    )
    assert code == EXIT_DATA
    assert str(roi) in err and "row 2: byte 0xe9 at offset 26" in err


def test_eval_with_non_ascii_protocol_exits_2(small_dataset, tmp_path, capsys):
    protocol = tmp_path / "protocol.csv"
    protocol.write_text(
        "sequence_id,split,condition\nseq000,train,studio\nseq002,test,caf\u00e9\n", encoding="utf-8"
    )
    code, _, err = run(
        capsys,
        "eval",
        "--root",
        str(small_dataset),
        "--protocol",
        str(protocol),
        "--algo",
        "chrom",
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == EXIT_DATA
    assert str(protocol) in err and "row 3" in err


def test_search_with_invalid_utf8_stage_file_exits_2(small_dataset, tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_bytes(b'[{"grid": {"window_s": [1.6]}}]\xff')
    code, _, err = run(
        capsys,
        "search",
        "--root",
        str(small_dataset),
        "--protocol",
        str(small_dataset / "protocol.csv"),
        "--algo",
        "chrom",
        "--stages",
        str(stages),
        "--out",
        str(tmp_path / "s.json"),
    )
    assert code == EXIT_DATA
    assert str(stages) in err and "not valid utf-8" in err


# ---------------------------------------------------------------------------
# data errors exit 2, whatever the input
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("short_bundle")
    assert main(["synth", "--out", str(root), "--duration", "0.5", "--seed", "7"]) == EXIT_OK
    return root / "seq000"


def assert_data_error(code, err):
    assert code == EXIT_DATA, err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("algo", ["chrom", "licvpr", "ssr"])
def test_video_shorter_than_the_window_exits_2(short_bundle, tmp_path, capsys, algo):
    code, _, err = run(
        capsys,
        "pulse",
        str(short_bundle / "video.rvid"),
        "--roi",
        str(short_bundle / "roi.csv"),
        "--algo",
        algo,
        "--out",
        str(tmp_path / "p.csv"),
    )
    assert_data_error(code, err)


@pytest.mark.parametrize("rows", [1, 19])
def test_hr_on_too_short_pulse_exits_2(tmp_path, capsys, rows):
    pulse_csv = tmp_path / "p.csv"
    pulse_csv.write_text(
        "t,value\n" + "".join(f"{i / 20!r},{float(np.sin(i))!r}\n" for i in range(rows)), encoding="ascii"
    )
    code, _, err = run(capsys, "hr", str(pulse_csv))
    assert_data_error(code, err)


def test_hr_on_unevenly_spaced_pulse_exits_2(tmp_path, capsys):
    # 72 bpm at 20 fps with a 30 s gap after sample 200: the end-to-end rate
    # would be 400 samples over 49.95 s, so the spectrum would read ~40 bpm.
    t = np.arange(400) / 20.0
    t[200:] += 30.0
    pulse_csv = tmp_path / "p.csv"
    pulse_csv.write_text(
        "t,value\n" + "".join(f"{ti!r},{float(np.sin(2 * np.pi * 1.2 * ti))!r}\n" for ti in t.tolist()), encoding="ascii"
    )
    code, out, err = run(capsys, "hr", str(pulse_csv))
    assert_data_error(code, err)
    assert out == "" and str(pulse_csv) in err and "t=40.0" in err


def test_hr_on_timestamps_spanning_past_the_float_range_exits_2(tmp_path, capsys):
    # 1e308 - (-1e308) overflows: every step and the rate would come out inf or NaN.
    pulse_csv = tmp_path / "p.csv"
    pulse_csv.write_text("t,value\n-1e308,0.0\n1e308,1.0\n", encoding="ascii")
    code, out, err = run(capsys, "hr", str(pulse_csv))
    assert_data_error(code, err)
    assert out == "" and f"{pulse_csv}: timestamps from -1e+308 to 1e+308 s span more than a float holds" in err


def test_hr_on_timestamps_too_close_for_a_finite_rate_exits_2(tmp_path, capsys):
    # 1 / 1e-320 overflows: the span is finite, but the rate would come out inf.
    pulse_csv = tmp_path / "p.csv"
    pulse_csv.write_text("t,value\n0,1\n1e-320,2\n", encoding="ascii")
    code, out, err = run(capsys, "hr", str(pulse_csv))
    assert_data_error(code, err)
    assert out == ""
    assert err == f"error: {pulse_csv}: timestamps from 0.0 to 1e-320 s are too close for a finite rate\n"


def test_hr_on_a_rate_near_the_float_limit_names_the_file_in_one_short_line(tmp_path, capsys):
    # Steps of 1e-300 s give a finite rate near 1e300 Hz: 3 samples are far short of 2 s, whose
    # sample count printed in full would take 300 digits.
    pulse_csv = tmp_path / "p.csv"
    pulse_csv.write_text("t,value\n0,1\n1e-300,2\n2e-300,3\n", encoding="ascii")
    code, out, err = run(capsys, "hr", str(pulse_csv))
    assert_data_error(code, err)
    assert out == ""
    assert err.startswith(f"error: {pulse_csv}: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    ("roi_row", "command", "options"),
    [
        ("0,16,16,48,48,16,48,48,16", "trace", ["--strategy", "mask"]),  # bow-tie polygon
        ("0,16,16,32,32", "trace", ["--strategy", "mask"]),  # box where mask needs landmarks
        ("0,16,16,5,5", "trace", ["--strategy", "skin"]),  # too few pixels to fit skin
        ("0,0,0,64,64", "pulse", ["--algo", "licvpr", "--set", "strategy=bbox"]),  # no background left
    ],
)
def test_roi_unfit_for_the_strategy_exits_2(synth_bundle, tmp_path, capsys, roi_row, command, options):
    roi = tmp_path / "roi.csv"
    roi.write_text(roi_row + "\n", encoding="ascii")
    code, _, err = run(
        capsys, command, str(synth_bundle / "video.rvid"), "--roi", str(roi), *options, "--out", str(tmp_path / "o.csv")
    )
    assert_data_error(code, err)


@pytest.mark.parametrize("strategy", ["bbox", "skin", "mask"])
def test_self_intersecting_polygon_exits_2_under_every_strategy(synth_bundle, tmp_path, capsys, strategy):
    # A bow-tie is malformed landmark data whatever the strategy reads, so the
    # ROI reader rejects it by file and row; bbox and skin once ran on it.
    roi = tmp_path / "roi.csv"
    roi.write_text("0,16,16,32,32\n5,16,16,48,48,16,48,48,16\n", encoding="ascii")
    out = tmp_path / "trace.csv"
    code, _, err = run(capsys, "trace", str(synth_bundle / "video.rvid"), "--roi", str(roi), "--strategy", strategy,
                       "--out", str(out))
    assert_data_error(code, err)
    assert str(roi) in err and "row 2: landmark polygon must be simple (non self-intersecting)" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def corruptible_dataset(tmp_path_factory):
    """Three 6 s bundles whose truth comes from the BVP (no gt.json)."""
    root = tmp_path_factory.mktemp("corruptible")
    pairs = [(66.0, "train"), (72.0, "test"), (84.0, "test")]
    build_dataset(root, pairs, base_config=SynthConfig(duration_s=6.0), base_seed=11)
    for sid in ("seq000", "seq001", "seq002"):
        (root / sid / "gt.json").unlink()
    return root


def _corrupt(data: bytes, op: str, pos: int, payload: bytes) -> bytes:
    if op == "flip":
        return data[:pos] + bytes([data[pos] ^ (payload[0] or 1)]) + data[pos + 1:]
    if op == "delete":
        return data[:pos] + data[pos + len(payload):]
    if op == "insert":
        return data[:pos] + payload + data[pos:]
    return data[:pos]  # truncate


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    target=st.sampled_from(
        [
            ("pulse", "seq001/video.rvid"),
            ("pulse", "seq001/roi.csv"),
            ("eval", "seq001/video.rvid"),
            ("eval", "seq001/roi.csv"),
            ("eval", "seq001/bvp.csv"),
            ("eval", "seq001/bvp_meta.json"),
            ("eval", "protocol.csv"),
            ("search", "seq001/video.rvid"),
        ]
    ),
    algo=st.sampled_from(["chrom", "licvpr", "ssr"]),
    op=st.sampled_from(["flip", "delete", "insert", "truncate"]),
    payload=st.binary(min_size=1, max_size=4),
    data=st.data(),
)
def test_corrupted_input_never_exits_1_or_raises(corruptible_dataset, tmp_path, capsys, target, algo, op, payload, data):
    command, name = target
    root = tmp_path / "ds"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(corruptible_dataset, root)
    path = root / name
    original = path.read_bytes()
    pos = data.draw(st.integers(0, len(original) - 1), label="pos")
    path.write_bytes(_corrupt(original, op, pos, payload))
    if command == "pulse":
        argv = ["pulse", str(root / "seq001/video.rvid"), "--roi", str(root / "seq001/roi.csv")]
    else:
        argv = [command, "--root", str(root), "--protocol", str(root / "protocol.csv"), "--jobs", "1"]
    if command == "search":
        # One stage on the test split, which holds the corrupted sequence.
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([{"grid": {"skin_tau": [0.3, 0.5]}}]), encoding="utf-8")
        argv += ["--stages", str(stages), "--split", "test"]
    out = tmp_path / ("out.json" if command == "search" else "out.csv")
    code, _, err = run(capsys, *argv, "--algo", algo, "--out", str(out))
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), err
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error:")


def test_eval_isolates_a_video_too_slow_for_the_band(corruptible_dataset, tmp_path, capsys):
    # At 20/19 fps the SSR estimation band lies above Nyquist.
    root = tmp_path / "ds"
    shutil.copytree(corruptible_dataset, root)
    video = root / "seq001" / "video.rvid"
    video.write_bytes(video.read_bytes().replace(b" 20/1 ", b" 20/19 ", 1))
    argv = ["eval", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "ssr"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert_data_error(code, err)
    assert "only 1 of 2 sequences succeeded" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_records_a_video_truncated_after_open_as_failed(tmp_path, capsys, monkeypatch, jobs):
    root = tmp_path / "ds"
    pairs = [(66.0, "train"), (60.0, "test"), (72.0, "test"), (84.0, "test")]
    build_dataset(root, pairs, base_config=SynthConfig(duration_s=6.0), base_seed=11)
    video = root / "seq002" / "video.rvid"
    end = video.stat().st_size - 100
    read_rvid = bench.read_rvid

    def read_then_truncate(path):
        seq = read_rvid(path)
        if path == video:
            with open(video, "r+b") as fh:
                fh.truncate(end)
        return seq

    monkeypatch.setattr(bench, "read_rvid", read_then_truncate)
    out = tmp_path / "r.csv"
    argv = ["eval", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "licvpr"]
    code, _, err = run(capsys, *argv, "--out", str(out), "--jobs", jobs)
    assert code == EXIT_OK, err
    assert "Traceback" not in err
    rows = {row.sequence_id: row for row in bench.read_report(out).sequences}
    assert [rows[sid].status for sid in ("seq001", "seq002", "seq003")] == ["ok", "failed", "ok"]
    assert rows["seq002"].detail.startswith(f"FormatError: {video}: payload truncated after open, at offset {end}: ")


def test_licvpr_on_a_three_frame_video_exits_2(tmp_path, capsys):
    frames = np.random.default_rng(0).integers(100, 160, size=(3, 64, 64, 3), dtype=np.uint8)
    video = tmp_path / "video.rvid"
    write_rvid(64, 64, 2, 3, [frames], video)
    roi = tmp_path / "roi.csv"
    roi.write_text("0,16,16,32,32\n", encoding="ascii")
    code, _, err = run(
        capsys, "pulse", str(video), "--roi", str(roi), "--algo", "licvpr", "--set", "strategy=bbox",
        "--out", str(tmp_path / "p.csv"),
    )
    assert_data_error(code, err)


def test_eval_with_null_sample_rate_in_sidecar_exits_2(corruptible_dataset, tmp_path, capsys):
    root = tmp_path / "ds"
    shutil.copytree(corruptible_dataset, root)
    for sid in ("seq001", "seq002"):
        meta = root / sid / "bvp_meta.json"
        meta.write_text(meta.read_text(encoding="utf-8").replace("256.0", "null"), encoding="utf-8")
    argv = ["eval", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "chrom"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert_data_error(code, err)


def test_eval_names_why_each_sequence_failed(corruptible_dataset, tmp_path, capsys):
    # One test sequence fails, so no report is written: the error line is
    # the only place its reason can appear.
    root = tmp_path / "ds"
    shutil.copytree(corruptible_dataset, root)
    (root / "seq001" / "gt.json").write_text('{"hr_bpm": true}', encoding="utf-8")
    argv = ["eval", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "chrom"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert_data_error(code, err)
    assert "only 1 of 2 sequences succeeded" in err
    assert "seq001 (FormatError: " in err and "gt.json: bad hr_bpm value" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("name, value", [
    ("gt.json", "1" + "0" * 400),  # an integer no float can hold
    ("bvp_meta.json", "1" + "0" * 400),
    ("bvp_meta.json", "1e-320"),  # a rate whose step 1 / rate overflows
], ids=["huge-hr", "huge-rate", "tiny-rate"])
def test_eval_fails_a_sequence_whose_json_number_is_unusable(corruptible_dataset, tmp_path, capsys, name, value):
    root = tmp_path / "ds"
    shutil.copytree(corruptible_dataset, root)
    path = root / "seq001" / name
    if name == "gt.json":
        path.write_text(f'{{"hr_bpm": {value}}}', encoding="utf-8")
    else:
        path.write_text(path.read_text(encoding="utf-8").replace("256.0", value), encoding="utf-8")
    argv = ["eval", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "chrom", "--jobs", "1"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert_data_error(code, err)
    assert "only 1 of 2 sequences succeeded" in err
    assert f"seq001 (FormatError: {path}: " in err


def test_search_with_scalar_grid_exits_2(small_dataset, tmp_path, capsys):
    # Also an empty grid, an empty candidate list, a string candidate list, a
    # list grid and a stage that is not an object.
    stages = tmp_path / "stages.json"
    argv = ["search", "--root", str(small_dataset), "--protocol", str(small_dataset / "protocol.csv")]
    grids = ({"window_s": 1.6}, {}, {"window_s": []}, {"window_s": "1.6"}, [["window_s", [1.6]]])
    for stage in [{"grid": grid} for grid in grids] + [["window_s", [1.6]]]:
        stages.write_text(json.dumps([stage]), encoding="utf-8")
        code, _, err = run(capsys, *argv, "--algo", "chrom", "--stages", str(stages), "--out", str(tmp_path / "s.json"))
        assert_data_error(code, err)
        assert "stages.json" in err


def test_search_records_a_candidate_an_earlier_winner_makes_invalid(small_dataset, tmp_path, capsys):
    # band_hi 3.0 is valid on the default band_lo, not on stage 0's winner 3.5.
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"grid": {"band_lo": [3.5]}}, {"grid": {"band_hi": [3.0, 4.0]}}]), encoding="utf-8")
    out = tmp_path / "s.json"
    argv = ["search", "--root", str(small_dataset), "--protocol", str(small_dataset / "protocol.csv")]
    argv += ["--algo", "chrom", "--stages", str(stages), "--objective", "neg_rmse", "--jobs", "1"]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_OK, err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["n_evaluations"] == 3
    rows = [row for stage in payload["trace"] for row in stage["evaluations"]]
    assert [row["error"] for row in rows if row["error"]] == ["ValueError: band must satisfy 0 < lo < hi, got [3.5, 3.0]"]
    assert payload["trace"][1]["selected"] == {"band_hi": 4.0}
    assert payload["best_params"] == {"band_lo": 3.5, "band_hi": 4.0}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the platform reports no CPU affinity")
def test_jobs_default_to_the_cpus_this_process_may_run_on():
    parser = build_parser()
    common = ["--root", "ds", "--protocol", "p.csv", "--algo", "chrom", "--out", "o.json"]
    for argv in (["eval", *common], ["search", *common, "--stages", "s.json"]):
        assert parser.parse_args(argv).jobs == len(os.sched_getaffinity(0))
        assert parser.parse_args([*argv, "--jobs", "64"]).jobs == 64


def test_search_with_invalid_band_combination_exits_1_before_reading_bundles(small_dataset, tmp_path, capsys):
    # Each key's first candidate builds, the pair (3.5, 3.0) does not. The root
    # holds no bundles, so evaluating the first stage would exit 2.
    stages = tmp_path / "stages.json"
    grids = [{"window_s": [1.6]}, {"band_lo": [0.5, 3.5], "band_hi": [3.0, 4.0]}]
    stages.write_text(json.dumps([{"grid": grid} for grid in grids]), encoding="utf-8")
    argv = ["search", "--root", str(tmp_path), "--protocol", str(small_dataset / "protocol.csv")]
    code, _, err = run(capsys, *argv, "--algo", "chrom", "--stages", str(stages), "--out", str(tmp_path / "s.json"))
    assert code == EXIT_USAGE, err
    assert "band must satisfy 0 < lo < hi, got [3.5, 3.0]" in err
    assert not (tmp_path / "s.json").exists()


def test_search_output_holds_coerced_values(small_dataset, tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"grid": {"window_s": [1.6, 3]}}]), encoding="utf-8")
    out = tmp_path / "s.json"
    argv = ["search", "--root", str(small_dataset), "--protocol", str(small_dataset / "protocol.csv")]
    code, _, err = run(
        capsys, *argv, "--algo", "chrom", "--stages", str(stages), "--set", "skin_tau=0.25",
        "--objective", "neg_rmse", "--out", str(out), "--jobs", "1",
    )
    assert code == EXIT_OK, err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["best_params"]["skin_tau"] == 0.25
    rows = payload["trace"][0]["evaluations"]
    assert [row["params"] for row in rows] == [
        {"skin_tau": 0.25, "window_s": 1.6},
        {"skin_tau": 0.25, "window_s": 3.0},
    ]
    assert all(type(value) is float for row in rows for value in row["params"].values())
    assert type(payload["trace"][0]["selected"]["window_s"]) is float


def test_eval_with_unknown_report_suffix_exits_1_before_reading(small_dataset, tmp_path, capsys):
    # The root holds no bundles, so reading any would exit 2.
    argv = ["eval", "--root", str(tmp_path), "--protocol", str(small_dataset / "protocol.csv"), "--algo", "chrom"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.txt"))
    assert code == EXIT_USAGE, err
    assert "unknown report format 'txt'" in err
    assert not (tmp_path / "r.txt").exists()


@pytest.fixture(scope="module")
def constant_truth_dataset(tmp_path_factory):
    """Four 72 bpm bundles, one of them in the train split."""
    root = tmp_path_factory.mktemp("constant_truth")
    assert main(["synth", "--out", str(root), "--count", "4", "--train-count", "1", "--duration", "10"]) == EXIT_OK
    return root


def test_eval_with_constant_truth_reports_undefined_pearson(constant_truth_dataset, tmp_path, capsys):
    root = constant_truth_dataset
    argv = ["eval", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "chrom", "--jobs", "1"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "r.json"))
    assert code == EXIT_OK, err
    assert "pearson=undefined ok=3 failed=0" in out
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["pearson_rho"] is None


def test_neg_rmse_search_with_constant_truth_succeeds(constant_truth_dataset, tmp_path, capsys):
    root = constant_truth_dataset
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"grid": {"window_s": [1.6, 3.2]}}]), encoding="utf-8")
    argv = ["search", "--root", str(root), "--protocol", str(root / "protocol.csv"), "--algo", "chrom"]
    argv += ["--stages", str(stages), "--split", "test", "--jobs", "1", "--out", str(tmp_path / "s.json")]
    code, _, err = run(capsys, *argv, "--objective", "neg_rmse")
    assert code == EXIT_OK, err
    rows = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))["trace"][0]["evaluations"]
    assert [row["error"] for row in rows] == [None, None]
