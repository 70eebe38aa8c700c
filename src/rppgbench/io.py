"""Readers and writers for the on-disk formats used by the benchmark.

Formats
-------
- ``.rvid``: one ASCII header line ``RVID1 <width> <height> <num>/<den> <nframes>``
  followed by raw interleaved RGB24 frames, row-major.
- physio CSV: ``t,value`` rows plus a JSON sidecar carrying ``subject_id``,
  ``lighting``, ``sample_rate_hz`` and ``signal_type``.
- protocol CSV: ``sequence_id,split,condition[,subject_id]`` rows.
- ROI CSV: per keyframe either ``frame,x,y,w,h`` or ``frame,x1,y1,x2,y2,...``
  with at least four landmark points, from frame 0 on; later frames inherit
  the most recent earlier entry.
- ground truth JSON: ``{"hr_bpm": <float>}``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .hr import GroundTruthHr
from .signals import Signal1D

__all__ = [
    "FrameSequence",
    "PhysioSignal",
    "ProtocolEntry",
    "ProtocolIndex",
    "RoiBox",
    "RoiPolygon",
    "RoiTrack",
    "read_rvid",
    "read_rvid_header",
    "write_rvid",
    "read_physio_csv",
    "write_physio_csv",
    "load_protocol",
    "write_protocol",
    "read_roi_track",
    "write_roi_track",
    "read_ground_truth",
    "write_ground_truth",
    "read_series_csv",
    "write_series_csv",
]

RVID_MAGIC = "RVID1"
_HEADER_SCAN = 128
# Per-axis cap on declared dimensions; anything above is treated as a corrupt
# header rather than an allocation request.
_MAX_DIM = 1 << 20
_MAX_FRAMES = 1 << 32

SPLITS = ("train", "test")
CONDITIONS = ("studio", "natural", "any")
LIGHTING = ("studio", "natural")
PHYSIO_KINDS = ("bvp", "respiration")


# ---------------------------------------------------------------------------
# text files
# ---------------------------------------------------------------------------

def _decode(path: Path, encoding: str) -> str:
    data = path.read_bytes()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"row {row}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not valid {encoding}",
            path=str(path),
            offset=exc.start,
        ) from None


def _read_lines(path) -> list[str]:
    """The lines of an ASCII text file without their terminators.

    CR LF and a lone CR end a line like LF, as in text mode. Row ``i`` in
    a reader's messages is ``lines[i - 1]``.
    """
    return _decode(Path(path), "ascii").replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_json(path):
    """The parsed content of a UTF-8 JSON file."""
    try:
        return json.loads(_decode(Path(path), "utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", path=str(path)) from None


# ---------------------------------------------------------------------------
# video container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameSequence:
    """An in-memory RGB24 video: frames shaped (n, height, width, 3), uint8."""

    width: int
    height: int
    fps: Fraction
    frames: np.ndarray
    sequence_id: str = ""

    def __post_init__(self):
        if not isinstance(self.fps, Fraction):
            object.__setattr__(self, "fps", Fraction(self.fps))
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")
        frames = self.frames
        expected = (frames.shape[0], self.height, self.width, 3)
        if frames.ndim != 4 or frames.shape != expected:
            raise ValueError(
                f"frames must be shaped (n, {self.height}, {self.width}, 3), got {frames.shape}"
            )
        if frames.shape[0] < 1:
            raise ValueError("a sequence needs at least one frame")
        if frames.dtype != np.uint8:
            raise ValueError(f"frames must be uint8, got {frames.dtype}")
        if frames.flags.writeable:
            frames.setflags(write=False)

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def fps_float(self) -> float:
        return float(self.fps)

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.fps_float


def _parse_rvid_header(data: bytes, path: str) -> tuple[int, int, Fraction, int, int]:
    nl = data.find(b"\n", 0, _HEADER_SCAN)
    if nl < 0:
        raise FormatError("missing header line", path=path, offset=0)
    try:
        header = data[:nl].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("header is not ASCII", path=path, offset=0) from None
    parts = header.split(" ")
    if len(parts) != 5 or parts[0] != RVID_MAGIC:
        raise FormatError(f"bad magic or malformed header {header!r}", path=path, offset=0)
    try:
        width = int(parts[1])
        height = int(parts[2])
        num_s, _, den_s = parts[3].partition("/")
        fps = Fraction(int(num_s), int(den_s))
        n_frames = int(parts[4])
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"unparsable header fields in {header!r}", path=path, offset=0) from None
    if width <= 0 or height <= 0 or n_frames <= 0 or fps <= 0:
        raise FormatError(f"non-positive header fields in {header!r}", path=path, offset=0)
    if width > _MAX_DIM or height > _MAX_DIM or n_frames > _MAX_FRAMES:
        raise FormatError(f"dimension overflow in header {header!r}", path=path, offset=0)
    return width, height, fps, n_frames, nl + 1


def read_rvid_header(path) -> tuple[int, int, Fraction, int]:
    """Parse just the header of an ``.rvid`` file: (width, height, fps, n_frames)."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SCAN)
    width, height, fps, n_frames, _ = _parse_rvid_header(head, str(path))
    return width, height, fps, n_frames


def read_rvid(path, sequence_id: str | None = None) -> FrameSequence:
    """Read an ``.rvid`` file into a FrameSequence.

    The payload must contain exactly ``n * h * w * 3`` bytes; a short or long
    payload raises :class:`FormatError` whose ``offset`` points at the byte
    where the payload stops matching the header.
    """
    path = Path(path)
    data = path.read_bytes()
    width, height, fps, n_frames, body_off = _parse_rvid_header(data, str(path))
    expected = n_frames * height * width * 3
    body_len = len(data) - body_off
    if body_len < expected:
        raise FormatError(
            f"payload truncated: expected {expected} bytes, found {body_len}",
            path=str(path),
            offset=body_off + body_len,
        )
    if body_len > expected:
        raise FormatError(
            f"trailing data: expected {expected} payload bytes, found {body_len}",
            path=str(path),
            offset=body_off + expected,
        )
    frames = np.frombuffer(data, dtype=np.uint8, count=expected, offset=body_off)
    frames = frames.reshape(n_frames, height, width, 3)
    return FrameSequence(
        width=width,
        height=height,
        fps=fps,
        frames=frames,
        sequence_id=sequence_id if sequence_id is not None else path.stem,
    )


def write_rvid(seq: FrameSequence, path) -> None:
    """Write a FrameSequence; reading it back is byte-identical."""
    path = Path(path)
    header = (
        f"{RVID_MAGIC} {seq.width} {seq.height} "
        f"{seq.fps.numerator}/{seq.fps.denominator} {seq.n_frames}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(seq.frames.tobytes())


# ---------------------------------------------------------------------------
# physiological signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysioSignal(Signal1D):
    """A contact sensor recording with its acquisition metadata."""

    kind: str
    subject_id: str
    lighting: str

    def __post_init__(self):
        if self.kind not in PHYSIO_KINDS:
            raise ValueError(f"kind must be one of {PHYSIO_KINDS}, got {self.kind!r}")
        if self.lighting not in LIGHTING:
            raise ValueError(f"lighting must be one of {LIGHTING}, got {self.lighting!r}")
        super().__post_init__()


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column ``t,value`` CSV; returns (t, values).

    Timestamps must be strictly increasing and everything must be finite;
    violations raise :class:`FormatError` naming the offending row.
    """
    path = Path(path)
    lines = _read_lines(path)
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


def write_series_csv(t, values, path) -> None:
    """Write a ``t,value`` CSV with full float precision (round-trip safe)."""
    t = np.asarray(t, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if t.shape != values.shape or t.ndim != 1:
        raise ValueError("t and values must be 1-D and equally long")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,value\n")
        for ti, vi in zip(t.tolist(), values.tolist()):
            fh.write(f"{ti!r},{vi!r}\n")


def read_physio_csv(path, meta_path) -> PhysioSignal:
    """Read a physiological recording plus its JSON sidecar."""
    path = Path(path)
    meta_path = Path(meta_path)
    if not meta_path.exists():
        raise FormatError(f"missing sidecar {meta_path.name}", path=str(path))
    meta = _read_json(meta_path)
    if not isinstance(meta, dict):
        raise FormatError("sidecar must be a JSON object", path=str(meta_path))
    for key in ("subject_id", "lighting", "sample_rate_hz", "signal_type"):
        if key not in meta:
            raise FormatError(f"sidecar missing key {key!r}", path=str(meta_path))
    _, values = read_series_csv(path)
    try:
        return PhysioSignal(
            kind=str(meta["signal_type"]),
            fs=float(meta["sample_rate_hz"]),
            samples=values,
            subject_id=str(meta["subject_id"]),
            lighting=str(meta["lighting"]),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid sidecar metadata: {exc}", path=str(meta_path)) from None


def write_physio_csv(sig: PhysioSignal, path, meta_path) -> None:
    """Write a recording as ``t,value`` CSV plus its JSON sidecar."""
    t = np.arange(sig.samples.size) / sig.fs
    write_series_csv(t, sig.samples, path)
    meta = {
        "subject_id": sig.subject_id,
        "lighting": sig.lighting,
        "sample_rate_hz": sig.fs,
        "signal_type": sig.kind,
    }
    Path(meta_path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolEntry:
    sequence_id: str
    split: str
    condition: str
    subject_id: str | None = None

    def __post_init__(self):
        if not self.sequence_id:
            raise ValueError("sequence_id must be non-empty")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")


@dataclass(frozen=True)
class ProtocolIndex:
    """The sequences of a protocol, tagged train/test; both splits non-empty, no subject in both."""

    entries: tuple[ProtocolEntry, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for split in SPLITS:
            if not self.split_entries(split):
                raise DataError(f"split {split!r} is empty")
        overlap = self.subjects("train") & self.subjects("test")
        if overlap:
            raise DataError(f"subjects {sorted(overlap)} appear in both splits")

    def split_entries(self, split: str) -> tuple[ProtocolEntry, ...]:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        return tuple(e for e in self.entries if e.split == split)

    def subjects(self, split: str) -> set:
        return {e.subject_id for e in self.split_entries(split) if e.subject_id is not None}


_PROTOCOL_HEADERS = ("sequence_id,split,condition", "sequence_id,split,condition,subject_id")


def load_protocol(path) -> ProtocolIndex:
    """Load and validate a protocol CSV.

    Rejects duplicate sequence ids, unknown split/condition tokens, empty
    splits, and subjects that appear on both sides of the train/test divide.
    """
    path = Path(path)
    rows = [(row_no, ln) for row_no, ln in enumerate(_read_lines(path), start=1) if ln.strip()]
    if rows and rows[0][1].strip() in _PROTOCOL_HEADERS:
        rows = rows[1:]
    entries: list[ProtocolEntry] = []
    seen: set[str] = set()
    for row_no, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) not in (3, 4):
            raise FormatError(f"row {row_no}: expected 3 or 4 columns, got {len(cells)}", path=str(path))
        try:
            entry = ProtocolEntry(
                sequence_id=cells[0],
                split=cells[1],
                condition=cells[2],
                subject_id=cells[3] if len(cells) == 4 and cells[3] else None,
            )
        except ValueError as exc:
            raise FormatError(f"row {row_no}: {exc}", path=str(path)) from None
        if entry.sequence_id in seen:
            raise FormatError(f"row {row_no}: duplicate sequence_id {entry.sequence_id!r}", path=str(path))
        seen.add(entry.sequence_id)
        entries.append(entry)
    try:
        return ProtocolIndex(entries=tuple(entries), name=path.stem)
    except DataError as exc:
        raise FormatError(str(exc), path=str(path)) from None


def write_protocol(index: ProtocolIndex, path) -> None:
    with_subjects = any(e.subject_id is not None for e in index.entries)
    header = _PROTOCOL_HEADERS[1] if with_subjects else _PROTOCOL_HEADERS[0]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for e in index.entries:
            row = f"{e.sequence_id},{e.split},{e.condition}"
            if with_subjects:
                row += f",{e.subject_id or ''}"
            fh.write(row + "\n")


# ---------------------------------------------------------------------------
# regions of interest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoiBox:
    """An axis-aligned box; x, y is the top-left corner in pixels."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    def bbox(self) -> "RoiBox":
        return self


@dataclass(frozen=True)
class RoiPolygon:
    """A landmark polygon with at least four vertices."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 4:
            raise ValueError(f"a landmark polygon needs at least 4 points, got {len(pts)}")
        object.__setattr__(self, "points", pts)

    def bbox(self) -> RoiBox:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        x0 = int(math.floor(min(xs)))
        y0 = int(math.floor(min(ys)))
        x1 = int(math.ceil(max(xs)))
        y1 = int(math.ceil(max(ys)))
        return RoiBox(x0, y0, max(x1 - x0, 1), max(y1 - y0, 1))


@dataclass(frozen=True)
class RoiTrack:
    """Per-frame regions of interest from frame 0 on, with carry-forward inheritance."""

    frames: tuple[int, ...]
    entries: tuple

    def __post_init__(self):
        frames = tuple(int(f) for f in self.frames)
        if len(frames) != len(self.entries) or not frames:
            raise ValueError("frames and entries must be non-empty and parallel")
        if frames[0] != 0:
            raise ValueError(f"ROI track must cover the sequence from frame 0, got a first entry at {frames[0]}")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("frame indices must be strictly increasing")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "entries", tuple(self.entries))

    def entry_for(self, frame_idx: int):
        """The entry at ``frame_idx``, inheriting the most recent earlier one."""
        pos = bisect_right(self.frames, frame_idx) - 1
        if pos < 0:
            raise ValueError(f"frame {frame_idx} precedes the first ROI entry ({self.frames[0]})")
        return self.entries[pos]

    def runs(self, n_frames: int):
        """Yield ``(start, stop, entry)`` for each stretch of frames below
        ``n_frames`` that shares one entry, in frame order."""
        stops = self.frames[1:] + (n_frames,)
        for start, stop, entry in zip(self.frames, stops, self.entries):
            stop = min(stop, n_frames)
            if start < stop:
                yield start, stop, entry


def read_roi_track(path, frame_width: int, frame_height: int) -> RoiTrack:
    """Read a ROI CSV of box rows or landmark rows for frames of the given size.

    A row with 5 cells is ``frame,x,y,w,h``; a row with an odd cell count of
    at least 9 is ``frame`` followed by ``x,y`` landmark pairs, from frame 0
    on. Boxes and the bounding boxes of polygons must lie inside the frame.
    """
    path = Path(path)
    frames: list[int] = []
    entries: list = []
    for row_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            frame_idx = int(cells[0])
        except ValueError:
            raise FormatError(f"row {row_no}: unparsable frame index", path=str(path)) from None
        if not frames and frame_idx != 0:
            raise FormatError(f"row {row_no}: the first ROI entry must be at frame 0, got {frame_idx}", path=str(path))
        if frames and frame_idx <= frames[-1]:
            raise FormatError(f"row {row_no}: frame indices must be strictly increasing", path=str(path))
        if len(cells) == 5:
            try:
                x, y, w, h = (int(c) for c in cells[1:])
            except ValueError:
                raise FormatError(f"row {row_no}: unparsable box coordinates", path=str(path)) from None
            try:
                entry, kind = RoiBox(x, y, w, h), "box"
            except ValueError as exc:
                raise FormatError(f"row {row_no}: {exc}", path=str(path)) from None
        elif len(cells) >= 9 and len(cells) % 2 == 1:
            try:
                coords = [float(c) for c in cells[1:]]
            except ValueError:
                raise FormatError(f"row {row_no}: unparsable landmark coordinates", path=str(path)) from None
            if any(math.isnan(c) or math.isinf(c) for c in coords):
                raise FormatError(f"row {row_no}: non-finite landmark", path=str(path))
            pts = tuple(zip(coords[0::2], coords[1::2]))
            try:
                entry, kind = RoiPolygon(pts), "landmark bounding box"
            except ValueError as exc:
                raise FormatError(f"row {row_no}: {exc}", path=str(path)) from None
        else:
            raise FormatError(
                f"row {row_no}: expected 5 cells (box) or an odd count >= 9 (landmarks), "
                f"got {len(cells)}",
                path=str(path),
            )
        b = entry.bbox()
        if b.x < 0 or b.y < 0 or b.x + b.w > frame_width or b.y + b.h > frame_height:
            raise FormatError(
                f"row {row_no}: {kind} ({b.x},{b.y},{b.w},{b.h}) exceeds the "
                f"{frame_width}x{frame_height} frame",
                path=str(path),
            )
        entries.append(entry)
        frames.append(frame_idx)
    if not frames:
        raise FormatError("no ROI rows", path=str(path))
    return RoiTrack(frames=tuple(frames), entries=tuple(entries))


def write_roi_track(track: RoiTrack, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for frame_idx, entry in zip(track.frames, track.entries):
            if isinstance(entry, RoiBox):
                fh.write(f"{frame_idx},{entry.x},{entry.y},{entry.w},{entry.h}\n")
            else:
                coords = ",".join(f"{v:g}" for pt in entry.points for v in pt)
                fh.write(f"{frame_idx},{coords}\n")


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def read_ground_truth(path) -> GroundTruthHr:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "hr_bpm" not in payload:
        raise FormatError("expected an object with an 'hr_bpm' key", path=str(path))
    try:
        return GroundTruthHr(bpm=float(payload["hr_bpm"]), source="synthetic")
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad hr_bpm value: {exc}", path=str(path)) from None


def write_ground_truth(bpm: float, path) -> None:
    Path(path).write_text(json.dumps({"hr_bpm": float(bpm)}) + "\n", encoding="utf-8")
