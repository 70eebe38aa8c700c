"""Command-line behavior: exit codes, output files, determinism."""

import json
from fractions import Fraction

import numpy as np
import pytest

from rppgbench.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from rppgbench.io import FrameSequence, write_rvid
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
    frames = np.zeros((60, 16, 16, 3), dtype=np.uint8)
    seq = FrameSequence(width=16, height=16, fps=Fraction(20), frames=frames)
    video = tmp_path / "video.rvid"
    write_rvid(seq, video)
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
