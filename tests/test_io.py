"""File format round-trips and rejection paths."""

import json
from fractions import Fraction

import numpy as np
import pytest

from rppgbench.errors import FormatError
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
    read_rvid_header,
    read_series_csv,
    write_ground_truth,
    write_physio_csv,
    write_protocol,
    write_roi_track,
    write_rvid,
    write_series_csv,
)


def make_sequence(n=2, w=4, h=4, seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    return FrameSequence(width=w, height=h, fps=Fraction(20, 1), frames=frames, sequence_id="t")


# ---------------------------------------------------------------------------
# RVID container
# ---------------------------------------------------------------------------


def test_rvid_round_trip_bytes(tmp_path):
    seq = make_sequence()
    p = tmp_path / "a.rvid"
    write_rvid(seq, p)
    back = read_rvid(p)
    assert back.width == 4 and back.height == 4 and back.n_frames == 2
    assert back.fps == Fraction(20, 1)
    assert np.array_equal(back.frames, seq.frames)

    q = tmp_path / "b.rvid"
    write_rvid(back, q)
    assert q.read_bytes() == p.read_bytes()


def test_rvid_header_parse_vga_sequence(tmp_path):
    # 640x480 at 20 fps, 1200 frames: parsed from the header alone, without
    # allocating the ~1.1 GB payload such a file would carry.
    p = tmp_path / "vga.rvid"
    p.write_bytes(b"RVID1 640 480 20/1 1200\n")
    width, height, fps, n_frames = read_rvid_header(p)
    assert (width, height, n_frames) == (640, 480, 1200)
    assert fps == Fraction(20, 1)
    assert float(fps) == 20.0


def test_rvid_truncated_payload_offset(tmp_path):
    seq = make_sequence(n=10)
    p = tmp_path / "t.rvid"
    write_rvid(seq, p)
    data = p.read_bytes()
    header_len = data.index(b"\n") + 1
    p.write_bytes(data[: header_len + 9 * 4 * 4 * 3])  # drop the 10th frame
    with pytest.raises(FormatError) as err:
        read_rvid(p)
    assert err.value.offset == header_len + 9 * 4 * 4 * 3
    assert "truncated" in str(err.value)


def test_rvid_trailing_data_offset(tmp_path):
    seq = make_sequence(n=2)
    p = tmp_path / "t.rvid"
    write_rvid(seq, p)
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
        read_rvid_header(p)


def test_rvid_rational_fps(tmp_path):
    seq = FrameSequence(
        width=2, height=2, fps=Fraction(30000, 1001),
        frames=np.zeros((3, 2, 2, 3), dtype=np.uint8), sequence_id="ntsc",
    )
    p = tmp_path / "n.rvid"
    write_rvid(seq, p)
    assert read_rvid(p).fps == Fraction(30000, 1001)


def test_frame_sequence_validation():
    with pytest.raises(ValueError):
        FrameSequence(width=4, height=4, fps=Fraction(20), frames=np.zeros((0, 4, 4, 3), np.uint8), sequence_id="x")
    with pytest.raises(ValueError):
        FrameSequence(width=4, height=4, fps=Fraction(0), frames=np.zeros((1, 4, 4, 3), np.uint8), sequence_id="x")
    with pytest.raises(ValueError):
        FrameSequence(width=4, height=4, fps=Fraction(20), frames=np.zeros((1, 4, 5, 3), np.uint8), sequence_id="x")


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


# ---------------------------------------------------------------------------
# ROI tracks
# ---------------------------------------------------------------------------


def test_roi_single_row_inherits_forward(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,100,80,200,240\n")
    track = read_roi_track(p, 640, 480)
    assert track.covers(1200)
    for idx in (0, 1, 599, 1199):
        assert track.entry_for(idx) == RoiBox(100, 80, 200, 240)


def test_roi_rejects_negative_width(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,10,10,-5,20\n")
    with pytest.raises(FormatError, match="row 1"):
        read_roi_track(p)


def test_roi_rejects_out_of_bounds_box(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,600,400,100,100\n")
    with pytest.raises(FormatError, match="exceeds"):
        read_roi_track(p, 640, 480)
    # same file is fine when geometry is unknown
    assert read_roi_track(p).entry_for(0) == RoiBox(600, 400, 100, 100)


def test_roi_rejects_out_of_bounds_polygon(tmp_path):
    # Points 10..70 wide: the bounding box leaves a 64x64 frame on the right.
    p = tmp_path / "roi.csv"
    p.write_text("0,1,1,4,4\n1,10,10,70,10,70,40,40,50,10,40\n")
    with pytest.raises(FormatError, match=r"row 2: landmark bounding box \(10,10,60,40\) exceeds the 64x64 frame"):
        read_roi_track(p, 64, 64)
    # same file is fine when geometry is unknown
    assert isinstance(read_roi_track(p).entry_for(1), RoiPolygon)


def test_roi_landmark_row_of_nine_points(tmp_path):
    coords = [(10 + i, 20 + (i % 3)) for i in range(9)]
    flat = ",".join(f"{x},{y}" for x, y in coords)
    p = tmp_path / "roi.csv"
    p.write_text(f"0,{flat}\n")
    entry = read_roi_track(p).entry_for(0)
    assert isinstance(entry, RoiPolygon)
    assert len(entry.points) == 9


def test_roi_rejects_even_cell_count(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,1,2,3,4,5,6,7\n")
    with pytest.raises(FormatError, match="row 1"):
        read_roi_track(p)


def test_roi_rejects_non_increasing_frames(tmp_path):
    p = tmp_path / "roi.csv"
    p.write_text("0,1,1,4,4\n0,2,2,4,4\n")
    with pytest.raises(FormatError, match="increasing"):
        read_roi_track(p)


def test_roi_track_round_trip(tmp_path):
    track = RoiTrack(
        frames=(0, 5),
        entries=(RoiBox(1, 2, 3, 4), RoiPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))),
    )
    p = tmp_path / "roi.csv"
    write_roi_track(track, p)
    back = read_roi_track(p)
    assert back.frames == (0, 5)
    assert back.entries[0] == RoiBox(1, 2, 3, 4)
    assert back.entries[1].points == ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))


def test_roi_entry_before_first_frame_errors():
    track = RoiTrack(frames=(5,), entries=(RoiBox(0, 0, 2, 2),))
    with pytest.raises(ValueError):
        track.entry_for(0)
    assert not track.covers(10)


# ---------------------------------------------------------------------------
# ground truth JSON
# ---------------------------------------------------------------------------


def test_ground_truth_round_trip(tmp_path):
    p = tmp_path / "gt.json"
    write_ground_truth(72.5, p)
    gt = read_ground_truth(p)
    assert gt.bpm == 72.5
    assert gt.source == "synthetic"


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
        ("roi.csv", b"0,16,16,32,32\n1,16,16,32,32\n2,16,16,32,3\xe92\n", 40, read_roi_track),
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
