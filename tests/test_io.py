"""File format round-trips and rejection paths."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rppgbench import io
from rppgbench.errors import DataError, FormatError
from rppgbench.io import (
    FrameSequence,
    PhysioSignal,
    ProtocolEntry,
    ProtocolIndex,
    RoiBox,
    RoiPolygon,
    RoiTrack,
    load_protocol,
    read_ground_truth,
    read_physio_csv,
    read_roi_track,
    read_rvid,
    read_series_csv,
    write_ground_truth,
    write_physio_csv,
    write_protocol,
    write_roi_track,
    write_rvid,
    write_series_csv,
)

from conftest import entry_at, read_frames

#: Hypothesis settings for the round-trips, which rewrite one file in tmp_path.
ROUND_TRIP = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def make_frames(n=2, w=4, h=4, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)


def write_frames(frames, path, fps=Fraction(20)):
    n, h, w, _ = frames.shape
    write_rvid(w, h, fps, n, [frames], path)


# ---------------------------------------------------------------------------
# RVID container
# ---------------------------------------------------------------------------


def test_rvid_round_trip_bytes(tmp_path):
    frames = make_frames(n=3)
    p = tmp_path / "a.rvid"
    write_rvid(4, 4, 20, 3, [frames[:2], frames[2:]], p)  # any split into blocks
    back = read_rvid(p)
    assert back.width == 4 and back.height == 4 and back.n_frames == 3
    assert back.fps == Fraction(20, 1)
    assert np.array_equal(read_frames(back, 0, 3), frames)

    q = tmp_path / "b.rvid"
    with back.reader() as read:
        write_rvid(back.width, back.height, back.fps, back.n_frames, (read(i, i + 1) for i in range(3)), q)
    assert q.read_bytes() == p.read_bytes()


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([np.zeros((2, 4, 4, 3), np.uint8)], "the blocks hold 2 frames, the header 3"),
        ([np.zeros((2, 4, 4, 3), np.uint8)] * 2, "the blocks hold 4 frames, the header 3"),
        ([np.zeros((3, 4, 5, 3), np.uint8)], r"blocks must be uint8 \(k, 4, 4, 3\), got uint8 \(3, 4, 5, 3\)"),
        ([np.zeros((3, 4, 4, 3), np.float64)], r"blocks must be uint8 \(k, 4, 4, 3\), got float64"),
        ([np.zeros((4, 4, 3), np.uint8)], r"got uint8 \(4, 4, 3\)"),
    ],
    ids=["too_few", "too_many", "shape", "dtype", "not_a_block"],
)
def test_write_rvid_rejects_bad_blocks_and_leaves_no_file(tmp_path, blocks, message):
    p = tmp_path / "a.rvid"
    p.write_bytes(b"an older file")
    with pytest.raises(ValueError, match=message):
        write_rvid(4, 4, 20, 3, blocks, p)
    assert list(tmp_path.iterdir()) == []


def test_write_rvid_leaves_no_file_when_the_blocks_raise(tmp_path):
    def blocks():
        yield np.zeros((1, 4, 4, 3), np.uint8)
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        write_rvid(4, 4, 20, 2, blocks(), tmp_path / "a.rvid")
    assert list(tmp_path.iterdir()) == []


def test_rvid_header_parse_vga_sequence(tmp_path):
    # 640x480 at 20 fps, 1200 frames: the header alone is parsed and sizes
    # the ~1.1 GB payload, which is found missing without being allocated.
    p = tmp_path / "vga.rvid"
    header = b"RVID1 640 480 20/1 1200\n"
    p.write_bytes(header)
    with pytest.raises(FormatError, match=f"expected {640 * 480 * 3 * 1200} bytes, found 0") as err:
        read_rvid(p)
    assert err.value.offset == len(header)


def test_rvid_truncated_payload_offset(tmp_path):
    p = tmp_path / "t.rvid"
    write_frames(make_frames(n=10), p)
    data = p.read_bytes()
    header_len = data.index(b"\n") + 1
    p.write_bytes(data[: header_len + 9 * 4 * 4 * 3])  # drop the 10th frame
    with pytest.raises(FormatError) as err:
        read_rvid(p)
    assert err.value.offset == header_len + 9 * 4 * 4 * 3
    assert "truncated" in str(err.value)


def test_rvid_truncated_after_open_fails_the_pass(tmp_path):
    frames = make_frames(n=10)
    p = tmp_path / "t.rvid"
    write_frames(frames, p)
    back = read_rvid(p)
    header_len = p.read_bytes().index(b"\n") + 1
    end = header_len + 9 * 4 * 4 * 3 + 5  # the 10th frame cut short
    with open(p, "r+b") as fh:
        fh.truncate(end)
    with back.reader() as read:
        assert np.array_equal(read(0, 9), frames[:9])
        message = f"truncated after open, at offset {end}: expected {10 * 4 * 4 * 3} bytes, found {end - header_len}"
        with pytest.raises(FormatError, match=message) as err:
            read(8, 10)
    assert err.value.path == str(p)
    assert err.value.offset == end


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 9), spans=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6))
def test_rvid_blocks_equal_the_frames(tmp_path, n, spans):
    frames = make_frames(n=n, w=3, h=2, seed=n)
    p = tmp_path / "b.rvid"
    write_frames(frames, p)
    with read_rvid(p).reader() as read:
        for start, stop in spans:
            if start <= stop <= n:
                block = read(start, stop)
                assert np.array_equal(block, frames[start:stop]) and not block.flags.writeable
            else:
                with pytest.raises(ValueError, match="outside"):
                    read(start, stop)


def test_rvid_trailing_data_offset(tmp_path):
    p = tmp_path / "t.rvid"
    write_frames(make_frames(n=2), p)
    data = p.read_bytes()
    p.write_bytes(data + b"\x00\x00")
    header_len = data.index(b"\n") + 1
    with pytest.raises(FormatError) as err:
        read_rvid(p)
    assert err.value.offset == header_len + 2 * 4 * 4 * 3


def test_rvid_bad_magic(tmp_path):
    p = tmp_path / "t.rvid"
    p.write_bytes(b"RVID9 4 4 20/1 1\n" + bytes(48))
    with pytest.raises(FormatError) as err:
        read_rvid(p)
    assert err.value.offset == 0


def test_rvid_dimension_overflow(tmp_path):
    p = tmp_path / "t.rvid"
    p.write_bytes(b"RVID1 99999999 4 20/1 1\n")
    with pytest.raises(FormatError, match="overflow"):
        read_rvid(p)


def test_rvid_rational_fps(tmp_path):
    p = tmp_path / "n.rvid"
    write_frames(np.zeros((3, 2, 2, 3), dtype=np.uint8), p, fps=Fraction(30000, 1001))
    assert read_rvid(p).fps == Fraction(30000, 1001)


def test_frame_sequence_validation():
    with pytest.raises(ValueError, match="at least one frame"):
        FrameSequence(width=4, height=4, fps=Fraction(20), n_frames=0, path="a.rvid")
    with pytest.raises(ValueError, match="non-negative payload offset"):
        FrameSequence(width=4, height=4, fps=Fraction(20), n_frames=1, path="a.rvid", offset=-1)
    with pytest.raises(ValueError, match="fps"):
        FrameSequence(width=4, height=4, fps=Fraction(0), n_frames=1, path="a.rvid")
    with pytest.raises(ValueError, match="dimensions"):
        FrameSequence(width=0, height=4, fps=Fraction(20), n_frames=1, path="a.rvid")


# ---------------------------------------------------------------------------
# series / physio CSV
# ---------------------------------------------------------------------------


def test_series_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(1)
    t = np.cumsum(rng.uniform(0.001, 0.01, size=100))
    v = rng.normal(size=100)
    p = tmp_path / "s.csv"
    write_series_csv(t, v, p)
    t2, v2 = read_series_csv(p)
    assert np.array_equal(t, t2)
    assert np.array_equal(v, v2)


@ROUND_TRIP
@given(rows=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=30, unique_by=lambda r: r[0]))
def test_series_csv_round_trips_any_finite_rows(tmp_path, rows):
    t, v = (np.array(col) for col in zip(*sorted(rows)))
    p = tmp_path / "s.csv"
    write_series_csv(t, v, p)
    t2, v2 = read_series_csv(p)
    assert np.array_equal(t, t2) and np.array_equal(v, v2)


def series_row_loop(path):
    """``read_series_csv`` one row at a time (the parser before the one-call parse)."""
    path = Path(path)
    lines = io._read_lines(path)
    if lines[0].strip() != "t,value":
        raise FormatError("first line must be the header 't,value'", path=str(path))
    ts: list[float] = []
    vs: list[float] = []
    for row_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise FormatError(f"row {row_no}: expected 2 columns, got {len(cells)}", path=str(path))
        try:
            t = float(cells[0])
            v = float(cells[1])
        except ValueError:
            raise FormatError(f"row {row_no}: unparsable number", path=str(path)) from None
        if math.isnan(t) or math.isnan(v) or math.isinf(t) or math.isinf(v):
            raise FormatError(f"row {row_no}: non-finite value", path=str(path))
        if ts and t <= ts[-1]:
            raise FormatError(f"row {row_no}: timestamps must be strictly increasing", path=str(path))
        ts.append(t)
        vs.append(v)
    if not ts:
        raise FormatError("empty data section", path=str(path))
    return np.asarray(ts), np.asarray(vs)


#: Edits of a series file: every ASCII character, and tokens near the parser's edge cases.
EDITS = st.sampled_from([chr(i) for i in range(128)]) | st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1_0", "0x10", "1.5d3", "\r\n", "\n\n", " \n", ",,", "1,2,3", "\x1c", "\t"]
)


@st.composite
def series_texts(draw):
    """A ``t,value`` file as written by ``write_series_csv``, then edited 0 to 3 times after its header."""
    rows = draw(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=40, unique_by=lambda r: r[0]))
    text = "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in sorted(rows))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(len("t,value\n"), len(text)))
        end = at + draw(st.integers(0, 3))
        text = text[:at] + draw(EDITS | st.just("")) + text[end:]
    return text


def assert_parses_like_the_row_loop(path):
    """Equal arrays from both parsers, or the same FormatError message."""
    try:
        expected = series_row_loop(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            read_series_csv(path)
        assert str(info.value) == str(exc)
    else:
        t, v = read_series_csv(path)
        assert np.array_equal(t, expected[0]) and np.array_equal(v, expected[1])
        assert t.dtype == v.dtype == np.float64


@settings(ROUND_TRIP, max_examples=300)
@pytest.mark.filterwarnings("error")
@given(text=series_texts())
def test_series_csv_parse_equals_the_row_loop(tmp_path, text):
    p = tmp_path / "s.csv"
    p.write_bytes(text.encode("ascii"))
    assert_parses_like_the_row_loop(p)


def test_valid_series_csv_skips_the_row_loop(tmp_path):
    t = np.arange(5121) / 256.0
    p = tmp_path / "s.csv"
    write_series_csv(t, np.sin(t), p)
    assert io._loadtxt_series(io._read_lines(p)[1:]) is not None


@pytest.mark.parametrize("line", ["\x1c0.5,2.0", "0.5,2.0\x1f", "0.5 ,2.0", "0.5,2.0,", "nan,1.0", "0.5,inf", " "])
def test_series_csv_edge_rows_parse_like_the_row_loop(tmp_path, line):
    # \x1c-\x1f: loadtxt strips them around a number, float() rejects them.
    p = tmp_path / "s.csv"
    p.write_text(f"t,value\n0.0,1.0\n{line}\n")
    assert_parses_like_the_row_loop(p)


def test_series_csv_rejects_non_monotonic(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,value\n0.0,1.0\n0.5,2.0\n0.5,3.0\n")
    with pytest.raises(FormatError, match="row 4"):
        read_series_csv(p)


def test_series_csv_rejects_empty_data(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,value\n")
    with pytest.raises(FormatError, match="empty"):
        read_series_csv(p)


def test_series_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("time,val\n0.0,1.0\n")
    with pytest.raises(FormatError):
        read_series_csv(p)


def test_physio_round_trip_256hz(tmp_path):
    t = np.arange(256) / 256.0  # 256 rows spanning one second
    sig = PhysioSignal(kind="bvp", fs=256.0, samples=np.sin(2 * np.pi * 1.2 * t),
                       subject_id="subj001", lighting="studio")
    csv_path = tmp_path / "bvp.csv"
    meta_path = tmp_path / "bvp_meta.json"
    write_physio_csv(sig, csv_path, meta_path)
    back = read_physio_csv(csv_path, meta_path)
    assert back.fs == 256.0
    assert back.samples.size == 256
    assert back.kind == "bvp" and back.lighting == "studio" and back.subject_id == "subj001"
    assert np.array_equal(back.samples, sig.samples)


def test_physio_timestamps_must_agree_with_the_sidecar_rate(tmp_path):
    # Rows 1/128 s apart under a 256 Hz sidecar: read at 256 Hz the beats
    # would come twice as fast, so the file is rejected rather than misread.
    t = np.arange(512) / 128.0
    csv_path, meta_path = tmp_path / "bvp.csv", tmp_path / "bvp_meta.json"
    write_series_csv(t, np.sin(2 * np.pi * 1.2 * t), csv_path)
    meta = {"subject_id": "s", "lighting": "studio", "sample_rate_hz": 256, "signal_type": "bvp"}
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=f"^{re.escape(str(csv_path))}: row at t=0.0078125: "):
        read_physio_csv(csv_path, meta_path)
    meta_path.write_text(json.dumps({**meta, "sample_rate_hz": 128}))
    assert read_physio_csv(csv_path, meta_path).fs == 128.0


def test_physio_missing_sidecar(tmp_path):
    csv_path = tmp_path / "bvp.csv"
    write_series_csv([0.0, 0.5], [1.0, 2.0], csv_path)
    with pytest.raises(FormatError, match="sidecar"):
        read_physio_csv(csv_path, tmp_path / "nope.json")


def test_physio_sidecar_missing_key(tmp_path):
    csv_path = tmp_path / "bvp.csv"
    write_series_csv([0.0, 0.5], [1.0, 2.0], csv_path)
    meta_path = tmp_path / "m.json"
    meta_path.write_text(json.dumps({"subject_id": "s", "lighting": "studio", "sample_rate_hz": 2}))
    with pytest.raises(FormatError, match="signal_type"):
        read_physio_csv(csv_path, meta_path)


@pytest.mark.parametrize("rate", [True, "256"])
def test_physio_sidecar_rate_must_be_a_number(tmp_path, rate):
    csv_path = tmp_path / "bvp.csv"
    write_series_csv([0.0, 0.5], [1.0, 2.0], csv_path)
    meta_path = tmp_path / "m.json"
    meta = {"subject_id": "s", "lighting": "studio", "sample_rate_hz": rate, "signal_type": "bvp"}
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=f"{re.escape(str(meta_path))}: .*sample_rate_hz must be a number"):
        read_physio_csv(csv_path, meta_path)


def test_physio_sidecar_rate_must_have_a_finite_step(tmp_path):
    # 1 / 1e-320 overflows to inf, which every row's step would pass as "even".
    csv_path = tmp_path / "bvp.csv"
    write_series_csv([0.0, 0.5], [1.0, 2.0], csv_path)
    meta_path = tmp_path / "m.json"
    meta = {"subject_id": "s", "lighting": "studio", "sample_rate_hz": 1e-320, "signal_type": "bvp"}
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=f"{re.escape(str(meta_path))}: .*1 / sample_rate_hz overflows"):
        read_physio_csv(csv_path, meta_path)


def test_physio_timestamps_spanning_past_the_float_range(tmp_path):
    # Checked before any step is taken, so no overflow warning (an error under this suite's filter).
    csv_path, meta_path = tmp_path / "bvp.csv", tmp_path / "bvp_meta.json"
    write_series_csv([-1e308, 1e308], [1.0, 2.0], csv_path)
    meta_path.write_text(json.dumps({"subject_id": "s", "lighting": "studio", "sample_rate_hz": 2, "signal_type": "bvp"}))
    with pytest.raises(FormatError, match=f"^{re.escape(str(csv_path))}: timestamps from -1e\\+308 to 1e\\+308 s span"):
        read_physio_csv(csv_path, meta_path)


@pytest.mark.parametrize("subject", [True, 5, None])
def test_physio_sidecar_subject_must_be_a_string(tmp_path, subject):
    csv_path = tmp_path / "bvp.csv"
    write_series_csv([0.0, 0.5], [1.0, 2.0], csv_path)
    meta_path = tmp_path / "m.json"
    meta = {"subject_id": subject, "lighting": "studio", "sample_rate_hz": 2.0, "signal_type": "bvp"}
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=f"{re.escape(str(meta_path))}: .*subject_id must be a string"):
        read_physio_csv(csv_path, meta_path)


def test_physio_rejects_unknown_lighting():
    with pytest.raises(ValueError):
        PhysioSignal(kind="bvp", fs=256.0, samples=[1.0], subject_id="s", lighting="disco")


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def write_protocol_text(path, rows, header="sequence_id,split,condition"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows))


def test_protocol_cohface_all_sizes(tmp_path):
    rows = [f"s{i:03d},train,any" for i in range(96)]
    rows += [f"s{i:03d},test,any" for i in range(96, 160)]
    p = tmp_path / "p.csv"
    write_protocol_text(p, rows)
    index = load_protocol(p)
    assert len(index.entries) == 160
    assert len(index.split_entries("train")) == 96
    assert len(index.split_entries("test")) == 64


def test_protocol_studio_split_sizes(tmp_path):
    rows = [f"s{i:03d},train,studio" for i in range(48)]
    rows += [f"s{i:03d},test,studio" for i in range(48, 80)]
    p = tmp_path / "p.csv"
    write_protocol_text(p, rows)
    index = load_protocol(p)
    assert len(index.split_entries("train")) == 48
    assert len(index.split_entries("test")) == 32
    assert all(e.condition == "studio" for e in index.entries)


def test_protocol_rejects_unknown_split(tmp_path):
    p = tmp_path / "p.csv"
    write_protocol_text(p, ["a,train,any", "b,validation,any", "c,test,any"])
    with pytest.raises(FormatError, match="split"):
        load_protocol(p)


def test_protocol_rejects_duplicate_id(tmp_path):
    p = tmp_path / "p.csv"
    write_protocol_text(p, ["a,train,any", "a,test,any"])
    with pytest.raises(FormatError, match="duplicate"):
        load_protocol(p)


def test_protocol_rejects_empty_split(tmp_path):
    p = tmp_path / "p.csv"
    write_protocol_text(p, ["a,train,any", "b,train,any"])
    with pytest.raises(FormatError, match="test"):
        load_protocol(p)


def test_protocol_rejects_subject_overlap(tmp_path):
    p = tmp_path / "p.csv"
    write_protocol_text(
        p,
        ["a,train,any,subj1", "b,test,any,subj1"],
        header="sequence_id,split,condition,subject_id",
    )
    with pytest.raises(FormatError, match="subj1"):
        load_protocol(p)


@pytest.mark.parametrize("splits", [("train", "test", "test"), ("train", "train", "test")], ids=["across", "within"])
def test_protocol_index_rejects_a_repeated_sequence_id(splits):
    # A protocol built in code: an id in both splits puts a test sequence in
    # training, one repeated within a split is scored twice.
    entries = [ProtocolEntry(sid, split, "any") for sid, split in zip(("seq000", "seq000", "seq001"), splits)]
    with pytest.raises(DataError, match=r"sequence ids \['seq000'\] appear more than once"):
        ProtocolIndex(entries=tuple(entries), name="p")


def test_protocol_error_names_the_physical_line(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("sequence_id,split,condition\na,train,any\n\nb,validation,any\nc,test,any\n")
    with pytest.raises(FormatError, match="row 4"):
        load_protocol(p)


def test_protocol_round_trip_with_subjects(tmp_path):
    index = ProtocolIndex(
        entries=(
            ProtocolEntry("a", "train", "any", "s1"),
            ProtocolEntry("b", "test", "natural", "s2"),
        ),
        name="p",
    )
    p = tmp_path / "p.csv"
    write_protocol(index, p)
    back = load_protocol(p)
    assert back.entries == index.entries
    assert back.subjects("train") == {"s1"}


IDS = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)


@st.composite
def protocols(draw):
    ids = draw(st.lists(IDS, min_size=2, max_size=8, unique=True))
    n_train = draw(st.integers(1, len(ids) - 1))
    entries = []
    for i, sid in enumerate(ids):
        split = "train" if i < n_train else "test"
        # A subject id carries its split, so no subject lands in both.
        subject = draw(st.none() | IDS.map(lambda s, split=split: f"{split}{s}"))
        entries.append(ProtocolEntry(sid, split, draw(st.sampled_from(["studio", "natural", "any"])), subject))
    return ProtocolIndex(entries=tuple(draw(st.permutations(entries))), name="p")


@ROUND_TRIP
@given(index=protocols())
def test_protocol_round_trips_any_valid_index(tmp_path, index):
    p = tmp_path / "p.csv"
    write_protocol(index, p)
    assert load_protocol(p) == index


# ---------------------------------------------------------------------------
# ROI tracks
# ---------------------------------------------------------------------------


def test_roi_single_row_inherits_forward(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,100,80,200,240\n")
    track = read_roi_track(p, 640, 480)
    for idx in (0, 1, 599, 1199):
        assert entry_at(track, idx) == RoiBox(100, 80, 200, 240)


def test_roi_rejects_negative_width(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,10,10,-5,20\n")
    with pytest.raises(FormatError, match="row 1"):
        read_roi_track(p, 640, 480)


def test_roi_rejects_out_of_bounds_box(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,600,400,100,100\n")
    with pytest.raises(FormatError, match="exceeds"):
        read_roi_track(p, 640, 480)


def test_roi_rejects_out_of_bounds_polygon(tmp_path):
    # Points 10..70 wide: the bounding box leaves a 64x64 frame on the right.
    p = tmp_path / "roi.csv"
    p.write_text("0,1,1,4,4\n1,10,10,70,10,70,40,40,50,10,40\n")
    with pytest.raises(FormatError, match=r"row 2: landmark bounding box \(10,10,60,40\) exceeds the 64x64 frame"):
        read_roi_track(p, 64, 64)


def test_roi_landmark_row_of_nine_points(tmp_path):
    # A zigzag of eight points closed through a ninth below it: a simple polygon.
    coords = [(10 + i, 20 + (i % 3)) for i in range(8)] + [(14, 30)]
    flat = ",".join(f"{x},{y}" for x, y in coords)
    p = tmp_path / "roi.csv"
    p.write_text(f"0,{flat}\n")
    entry = read_roi_track(p, 64, 64).entries[0]
    assert isinstance(entry, RoiPolygon)
    assert len(entry.points) == 9


def test_roi_rejects_even_cell_count(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,1,2,3,4,5,6,7\n")
    with pytest.raises(FormatError, match="row 1"):
        read_roi_track(p, 64, 64)


def test_roi_rejects_non_increasing_frames(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,1,1,4,4\n0,2,2,4,4\n")
    with pytest.raises(FormatError, match="increasing"):
        read_roi_track(p, 64, 64)


@pytest.mark.parametrize("first", ["3", "-1"])
def test_roi_first_row_must_be_frame_0(tmp_path, first):
    p = tmp_path / "roi.csv"
    p.write_text(f"\n{first},1,1,4,4\n9,2,2,4,4\n")
    with pytest.raises(FormatError, match=f"row 2: the first ROI entry must be at frame 0, got {first}"):
        read_roi_track(p, 64, 64)


#: Just past the landmark coordinate cap, and no frame reaches the cap itself.
PAST_CAP = math.nextafter(io._MAX_DIM, math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "row, coord",
    [
        ("1,1e200,1e200,3e200,1e200,3e200,3e200,1e200,3e200", "1e+200"),
        ("1,-1e200,-1e200,-3e200,-1e200,-3e200,-3e200,-1e200,-3e200", "-1e+200"),
        (f"1,1,1,{PAST_CAP!r},1,{PAST_CAP!r},4,1,4", repr(PAST_CAP)),
        (f"1,{-PAST_CAP!r},1,1,1,1,4,{-PAST_CAP!r},4", repr(-PAST_CAP)),
    ],
    ids=["1e200", "-1e200", "past-cap", "minus-past-cap"],
)
def test_roi_rejects_landmarks_past_the_coordinate_cap(tmp_path, row, coord):
    # The cap comes before the simplicity check, whose products would overflow.
    p = tmp_path / "roi.csv"
    p.write_text(f"0,1,1,4,4\n{row}\n")
    message = f"row 2: landmark coordinate {coord} is outside [-{io._MAX_DIM}, {io._MAX_DIM}]"
    with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        read_roi_track(p, 64, 64)


def test_roi_polygon_takes_coordinates_at_the_cap():
    cap = io._MAX_DIM
    assert RoiPolygon(((-cap, -cap), (cap, -cap), (cap, cap), (-cap, cap))).bbox() == RoiBox(-cap, -cap, 2 * cap, 2 * cap)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_roi_polygon_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="^non-finite landmark$"):
        RoiPolygon(((0, 0), (4, 0), (4, bad), (0, 4)))


@pytest.mark.parametrize(
    "head, good, bad, message, read",
    [
        ("t,value", ["0.0,1.0", "0.5,2.0", "1.0,3.0"], "1.0,4.0", "timestamps must be strictly increasing",
         read_series_csv),
        ("sequence_id,split,condition", ["a,train,any", "b,test,any", "c,test,any"], "a,test,any",
         "duplicate sequence_id 'a'", load_protocol),
        ("0,1,1,4,4", ["1,2,2,4,4", "2,1,1,4,4", "3,2,2,4,4"], "3,1,1,4,4", "frame indices must be strictly increasing",
         lambda p: read_roi_track(p, 64, 64)),
    ],
    ids=["series", "protocol", "roi"],
)
def test_text_readers_count_blank_and_cr_lines_as_rows(tmp_path, head, good, bad, message, read):
    # Physical lines 3 and 5 are blank and whitespace-only; a lone CR and CR LF end lines like LF.
    lines = [head, good[0], "", good[1], " \t", good[2], bad]
    p = tmp_path / "file.csv"
    p.write_bytes("".join(line + end for line, end in zip(lines, ["\r\n", "\n", "\r", "\r\n", "\r", "\n", "\n"])).encode())
    with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: row 7: {message}')}$"):
        read(p)


def test_roi_track_round_trip(tmp_path):
    track = RoiTrack(
        frames=(0, 5),
        entries=(RoiBox(1, 2, 3, 4), RoiPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))),
    )
    p = tmp_path / "roi.csv"
    write_roi_track(track, p)
    back = read_roi_track(p, 64, 64)
    assert back.frames == (0, 5)
    assert back.entries[0] == RoiBox(1, 2, 3, 4)
    assert back.entries[1].points == ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))


WIDTH, HEIGHT = 64, 48


@st.composite
def roi_entries(draw):
    """A box inside the frame, or the points of a landmark polygon, simple or not."""
    if draw(st.booleans()):
        x = draw(st.integers(0, WIDTH - 1))
        y = draw(st.integers(0, HEIGHT - 1))
        return RoiBox(x, y, draw(st.integers(1, WIDTH - x)), draw(st.integers(1, HEIGHT - y)))
    # Points up to one pixel short of the far edge keep the bounding box in the frame.
    xs = st.floats(0.0, WIDTH - 1.0)
    ys = st.floats(0.0, HEIGHT - 1.0)
    points = draw(st.lists(st.tuples(xs, ys), min_size=4, max_size=9))
    if draw(st.booleans()):  # in angle order around their mean: mostly a simple polygon
        cx, cy = np.mean(points, axis=0)
        points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return tuple(points)


def _simple(points) -> bool:
    try:
        io._check_simple_polygon(points)
    except ValueError:
        return False
    return True


@ROUND_TRIP
@given(
    gaps=st.lists(st.integers(1, 50), max_size=5),
    entries=st.lists(roi_entries(), min_size=6, max_size=6),
)
def test_roi_track_round_trips_boxes_and_polygons(tmp_path, gaps, entries):
    frames = tuple(np.cumsum([0, *gaps]).tolist())
    entries = entries[:len(frames)]
    p = tmp_path / "roi.csv"
    # A self-intersecting polygon is malformed data: no RoiPolygon holds one,
    # so its row is written as text, and the reader names the row.
    bad = [row for row, e in enumerate(entries, start=1) if not isinstance(e, RoiBox) and not _simple(e)]
    if bad:
        rows = [f"{f},{e.x},{e.y},{e.w},{e.h}" if isinstance(e, RoiBox) else f"{f}," + ",".join(map(repr, sum(e, ())))
                for f, e in zip(frames, entries)]
        p.write_text("".join(row + "\n" for row in rows))
        with pytest.raises(FormatError, match=f"row {bad[0]}: landmark polygon must be simple"):
            read_roi_track(p, WIDTH, HEIGHT)
    else:
        track = RoiTrack(frames, tuple(e if isinstance(e, RoiBox) else RoiPolygon(e) for e in entries))
        write_roi_track(track, p)
        assert read_roi_track(p, WIDTH, HEIGHT) == track


def test_roi_track_writes_whole_and_half_coordinates_as_before(tmp_path):
    corners = ((16, 14.5), (48, 14.5), (48, 40), (16, 40.123456789))
    p = tmp_path / "roi.csv"
    write_roi_track(RoiTrack(frames=(0,), entries=(RoiPolygon(corners),)), p)
    assert p.read_text() == "0,16,14.5,48,14.5,48,40,16,40.123456789\n"
    assert read_roi_track(p, WIDTH, HEIGHT).entries[0].points[3] == (16.0, 40.123456789)


def test_roi_track_runs_clip_at_the_sequence_end():
    a, b, c = RoiBox(0, 0, 2, 2), RoiBox(1, 1, 2, 2), RoiBox(2, 2, 2, 2)
    track = RoiTrack(frames=(0, 5, 10), entries=(a, b, c))
    assert list(track.runs(12)) == [(0, 5, a), (5, 10, b), (10, 12, c)]
    assert list(track.runs(7)) == [(0, 5, a), (5, 7, b)]  # c starts after the end
    assert list(track.runs(10)) == [(0, 5, a), (5, 10, b)]  # c starts at the end
    assert list(track.runs(3)) == [(0, 3, a)]


@given(frames=st.lists(st.integers(1, 40), max_size=6, unique=True), n_frames=st.integers(1, 50))
def test_roi_track_runs_tile_the_frames_like_entry_for(frames, n_frames):
    frames = (0, *sorted(frames))
    track = RoiTrack(frames=frames, entries=tuple(RoiBox(f, 0, 1, 1) for f in frames))
    runs = list(track.runs(n_frames))
    assert [start for start, _, _ in runs] == [f for f in frames if f < n_frames]
    assert [stop for _, stop, _ in runs] == [start for start, _, _ in runs[1:]] + [n_frames]
    for start, stop, entry in runs:
        assert all(entry_at(track, i) == entry for i in range(start, stop))


def test_roi_entry_before_first_frame_errors():
    with pytest.raises(ValueError, match="from frame 0"):
        RoiTrack(frames=(5,), entries=(RoiBox(0, 0, 2, 2),))


# ---------------------------------------------------------------------------
# ground truth JSON
# ---------------------------------------------------------------------------


def test_ground_truth_round_trip(tmp_path):
    p = tmp_path / "gt.json"
    write_ground_truth(72.5, p)
    gt = read_ground_truth(p)
    assert gt.bpm == 72.5
    assert gt.method == "synthetic"


@pytest.mark.parametrize("value", [True, "72"])
def test_ground_truth_must_be_a_number(tmp_path, value):
    p = tmp_path / "gt.json"
    p.write_text(json.dumps({"hr_bpm": value}))
    with pytest.raises(FormatError, match=f"{re.escape(str(p))}: .*hr_bpm must be a number"):
        read_ground_truth(p)


def test_ground_truth_rejects_an_int_no_float_can_hold(tmp_path):
    p = tmp_path / "gt.json"
    p.write_text('{"hr_bpm": 1' + "0" * 400 + "}")
    with pytest.raises(FormatError, match=f"{re.escape(str(p))}: bad hr_bpm value: .*int too large to convert"):
        read_ground_truth(p)


def test_ground_truth_rejects_malformed(tmp_path):
    p = tmp_path / "gt.json"
    p.write_text("{\"rate\": 72}")
    with pytest.raises(FormatError, match="hr_bpm"):
        read_ground_truth(p)
    p.write_text("not json")
    with pytest.raises(FormatError):
        read_ground_truth(p)


# ---------------------------------------------------------------------------
# text decoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, data, offset, read",
    [
        ("pulse.csv", b"t,value\n0.0,1.0\n0.05,\xe9\n", 21, read_series_csv),
        ("p.csv", b"sequence_id,split,condition\na,train,any\nb,test,caf\xc3\xa9\n", 50, load_protocol),
        ("roi.csv", b"0,16,16,32,32\n1,16,16,32,32\n2,16,16,32,3\xe92\n", 40, lambda p: read_roi_track(p, 64, 64)),
    ],
    ids=["series", "protocol", "roi"],
)
def test_text_readers_reject_non_ascii_with_row_and_offset(tmp_path, name, data, offset, read):
    p = tmp_path / name
    p.write_bytes(data)
    with pytest.raises(FormatError, match=f"row 3: byte 0x{data[offset]:02x} at offset {offset} is not valid ascii") as info:
        read(p)
    assert str(info.value).startswith(f"{p}: ") and info.value.offset == offset


def test_json_readers_reject_invalid_utf8(tmp_path):
    gt = tmp_path / "gt.json"
    gt.write_bytes(b'{"hr_bpm": 72.0}\xff')
    with pytest.raises(FormatError, match="offset 16 is not valid utf-8"):
        read_ground_truth(gt)
    csv_path, meta_path = tmp_path / "bvp.csv", tmp_path / "bvp_meta.json"
    csv_path.write_text("t,value\n0.0,1.0\n")
    meta_path.write_bytes(b'{"subject_id": "s\xff"}')
    with pytest.raises(FormatError, match="bvp_meta.json"):
        read_physio_csv(csv_path, meta_path)
