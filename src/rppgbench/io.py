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
  the most recent earlier entry. Landmark coordinates must be finite; they and
  box cells lie within ``±_MAX_DIM``, frame indices within ``±_MAX_FRAMES``.
- ground truth JSON: ``{"hr_bpm": <float>}``.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .hr import HrEstimate
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


def _rows(path: Path, lines: list[str], strip: bool = True):
    """Yield ``(cells, error)`` for each non-blank line of :func:`_read_lines`: its comma-separated cells, each
    stripped of surrounding whitespace if ``strip``, and ``error(message)``, the FormatError naming the file and
    the row (``lines[i]`` is row ``i + 1``) for the reader to raise."""
    for row_no, line in enumerate(lines, start=1):
        if line.strip():
            cells = [c.strip() for c in line.split(",")] if strip else line.split(",")
            yield cells, lambda message, row_no=row_no: FormatError(f"row {row_no}: {message}", path=str(path))


def _read_json(path):
    """The parsed content of a UTF-8 JSON file."""
    try:
        return json.loads(_decode(Path(path), "utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", path=str(path)) from None


def _check_number(name: str, value, optional: bool = True) -> float | None:
    """``value`` as a float; ValueError unless a float or an int a float holds (a bool is neither), or None if optional."""
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number{' or null' if optional else ''}, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from None


def affinity_cpus() -> int:
    """The number of CPUs this process may run on, where the platform can tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# ---------------------------------------------------------------------------
# video container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameSequence:
    """An RGB24 video of ``n_frames`` frames shaped (height, width, 3), uint8, in an ``.rvid`` file.

    The sequence holds no pixels: it keeps its file's ``path`` and the
    ``offset`` of the payload (see :func:`read_rvid`), and reaches frames a
    block at a time in passes of :meth:`reader`, so a whole video is never
    in memory. The file must not change while the sequence is evaluated; a
    payload found short raises :class:`FormatError`.
    """

    width: int
    height: int
    fps: Fraction
    n_frames: int
    path: str
    offset: int = 0

    def __post_init__(self):
        if not isinstance(self.fps, Fraction):
            object.__setattr__(self, "fps", Fraction(self.fps))
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")
        if self.n_frames < 1 or self.offset < 0:
            raise ValueError("a sequence needs at least one frame and a non-negative payload offset")

    @contextmanager
    def reader(self):
        """One pass over the frames: yields ``read(start, stop)``.

        ``read`` returns frames ``start`` to ``stop - 1`` as a read-only
        uint8 array (stop - start, height, width, 3). The pass opens the file
        once and reads each block at its position into one buffer, which the
        pass's next ``read`` overwrites, and closes the file when the pass
        ends; a block the file no longer holds raises FormatError at the
        offset where the payload stops. Passes share no file offset, so
        threads may run them at once.
        """
        frame_bytes = self.height * self.width * 3
        buffer = np.empty(0, dtype=np.uint8)
        with open(self.path, "rb") as fh:
            def read(start: int, stop: int) -> np.ndarray:
                nonlocal buffer
                if not 0 <= start <= stop <= self.n_frames:
                    raise ValueError(f"frames {start}:{stop} outside the sequence's {self.n_frames}")
                size = (stop - start) * frame_bytes
                if buffer.size < size:
                    buffer = np.empty(size, dtype=np.uint8)
                position = self.offset + start * frame_bytes
                fh.seek(position)
                found = fh.readinto(buffer[:size])
                if found < size:
                    end = position + found
                    raise FormatError(f"payload truncated after open, at offset {end}: expected {self.n_frames * frame_bytes}"
                                      f" bytes, found {end - self.offset}", path=self.path, offset=end)
                block = buffer[:size].reshape(stop - start, self.height, self.width, 3)
                block.flags.writeable = False
                return block

            yield read


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


def read_rvid(path) -> FrameSequence:
    """Open an ``.rvid`` file as a FrameSequence that reads its frames in blocks.

    Only the header is read here. The payload must contain exactly
    ``n * h * w * 3`` bytes; a short or long payload raises
    :class:`FormatError` whose ``offset`` points at the byte where the
    payload stops matching the header. The frames are read later, a block
    at a time (see :meth:`FrameSequence.reader`), so the file must not
    change while the sequence is in use.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SCAN)
        file_len = os.fstat(fh.fileno()).st_size
    width, height, fps, n_frames, body_off = _parse_rvid_header(head, str(path))
    expected = n_frames * height * width * 3
    body_len = file_len - body_off
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
    return FrameSequence(width=width, height=height, fps=fps, n_frames=n_frames, path=str(path), offset=body_off)


#: Bytes of frames that a streaming pass, such as the generator's, handles per block (at least one frame).
BLOCK_BYTES = 1 << 18


def write_rvid(width: int, height: int, fps, n_frames: int, blocks, path) -> None:
    """Write an ``.rvid`` file from its header fields (``fps`` an int or a Fraction) and uint8 blocks of frames.

    Each block, shaped (k, height, width, 3), is written as it comes. A block of another shape or dtype, or
    a frame total other than ``n_frames``, raises ValueError; whatever raises, here or in ``blocks``, leaves
    no file at ``path``.
    """
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(f"{RVID_MAGIC} {width} {height} {fps.numerator}/{fps.denominator} {n_frames}\n".encode("ascii"))
            written = 0
            for block in blocks:
                if block.dtype != np.uint8 or block.shape[1:] != (height, width, 3):
                    raise ValueError(f"blocks must be uint8 (k, {height}, {width}, 3), got {block.dtype} {block.shape}")
                fh.write(block.tobytes())
                written += len(block)
            if written != n_frames:
                raise ValueError(f"the blocks hold {written} frames, the header {n_frames}")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


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
        if not isinstance(self.subject_id, str):
            raise ValueError(f"subject_id must be a string, got {self.subject_id!r}")
        if self.kind not in PHYSIO_KINDS:
            raise ValueError(f"kind must be one of {PHYSIO_KINDS}, got {self.kind!r}")
        if self.lighting not in LIGHTING:
            raise ValueError(f"lighting must be one of {LIGHTING}, got {self.lighting!r}")
        super().__post_init__()


def _loadtxt_series(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """(t, values) of ``t,value`` data rows in one ``np.loadtxt`` call; None unless every row is valid.

    ``loadtxt`` strips the separators \\x1c-\\x1f around a number, which ``float`` rejects.
    """
    text = "".join(lines)
    if not any(line.strip() for line in lines) or any(separator in text for separator in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] == 2 and np.isfinite(rows).all() and (rows[1:, 0] > rows[:-1, 0]).all():
        return tuple(np.ascontiguousarray(rows.T))
    return None


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column ``t,value`` CSV; returns (t, values).

    Timestamps must be strictly increasing and everything must be finite;
    violations raise :class:`FormatError` naming the offending row, which
    the row loop finds when one ``np.loadtxt`` call cannot take every row.
    """
    path = Path(path)
    lines = _read_lines(path)
    if lines[0].strip() != "t,value":
        raise FormatError("first line must be the header 't,value'", path=str(path))
    if (parsed := _loadtxt_series(lines[1:])) is not None:
        return parsed
    lines[0] = ""  # the header, checked above: the walk skips it like a blank row
    ts: list[float] = []
    vs: list[float] = []
    for cells, error in _rows(path, lines, strip=False):  # float() rejects \x1c-\x1f, which strip() removes
        if len(cells) != 2:
            raise error(f"expected 2 columns, got {len(cells)}")
        try:
            t, v = float(cells[0]), float(cells[1])
        except ValueError:
            raise error("unparsable number") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise error("non-finite value")
        if ts and t <= ts[-1]:
            raise error("timestamps must be strictly increasing")
        ts.append(t)
        vs.append(v)
    if not ts:
        raise FormatError("empty data section", path=str(path))
    return np.asarray(ts), np.asarray(vs)


def _check_even_steps(path, t: np.ndarray, step: float | None, expected: str) -> None:
    """Raise FormatError at the first timestamp more than half a step off ``step`` (None: the median step) after
    its predecessor, or first when increasing timestamps span more than a float holds, so no step overflows."""
    if not math.isfinite(float(t[-1]) - float(t[0])):
        raise FormatError(f"timestamps from {t[0]} to {t[-1]} s span more than a float holds", path=str(path))
    steps = np.diff(t)
    step = np.median(steps) if step is None else step
    uneven = np.flatnonzero(np.abs(steps - step) > step / 2)
    if uneven.size:
        k = uneven[0]
        raise FormatError(f"row at t={t[k + 1]}: {steps[k]} s after the previous row, more than half a step off "
                          f"{expected} {step} s; samples must be evenly spaced", path=str(path))


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
    t, values = read_series_csv(path)
    try:
        signal = PhysioSignal(
            kind=meta["signal_type"],
            fs=_check_number("sample_rate_hz", meta["sample_rate_hz"], optional=False),
            samples=values,
            subject_id=meta["subject_id"],
            lighting=meta["lighting"],
        )
        if not math.isfinite(1.0 / signal.fs):
            raise ValueError(f"1 / sample_rate_hz overflows for sample_rate_hz {signal.fs}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"invalid sidecar metadata: {exc}", path=str(meta_path)) from None
    _check_even_steps(path, t, 1.0 / signal.fs, "1 / sample_rate_hz =")
    return signal


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
    """The sequences of a protocol, tagged train/test; both splits non-empty, no subject in both, no id twice."""

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
        if repeated := sorted(i for i, n in Counter(e.sequence_id for e in self.entries).items() if n > 1):
            raise DataError(f"sequence ids {repeated} appear more than once")

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
    lines = _read_lines(path)
    first = next((i for i, line in enumerate(lines) if line.strip()), 0)
    if lines[first].strip() in _PROTOCOL_HEADERS:
        lines[first] = ""  # the header: the walk skips it like a blank row
    entries: list[ProtocolEntry] = []
    seen: set[str] = set()
    for cells, error in _rows(path, lines):
        if len(cells) not in (3, 4):
            raise error(f"expected 3 or 4 columns, got {len(cells)}")
        try:
            entry = ProtocolEntry(
                sequence_id=cells[0],
                split=cells[1],
                condition=cells[2],
                subject_id=cells[3] if len(cells) == 4 and cells[3] else None,
            )
        except ValueError as exc:
            raise error(str(exc)) from None
        if entry.sequence_id in seen:
            raise error(f"duplicate sequence_id {entry.sequence_id!r}")
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

    def within(self, width: int, height: int) -> bool:
        return self.x >= 0 and self.y >= 0 and self.x + self.w <= width and self.y + self.h <= height


def _check_simple_polygon(points) -> None:
    """Reject a polygon in which two edges that share no vertex cross or touch.

    Edge i runs from vertex i to vertex i + 1, the last one closing the
    polygon. One array pass tests every pair of edges that share no vertex
    with four orientation products: the edges cross when each has one end
    strictly left of the other and one not, and touch when an end is
    collinear with the other edge and inside its box.
    """
    start = np.asarray(points, dtype=np.float64)
    end = np.roll(start, -1, axis=0)
    k = len(start)
    i, j = np.triu_indices(k, 2)
    apart = (i > 0) | (j < k - 1)  # edge 0 meets edge k - 1
    p1, p2, p3, p4 = start[i[apart]].T, end[i[apart]].T, start[j[apart]].T, end[j[apart]].T
    tests = ((p3, p4, p1), (p3, p4, p2), (p1, p2, p3), (p1, p2, p4))
    d = [(b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) for a, b, c in tests]
    hit = ((d[0] > 0) != (d[1] > 0)) & ((d[2] > 0) != (d[3] > 0))
    for orient, (a, b, c) in zip(d, tests):
        hit |= (orient == 0) & (np.minimum(a, b) <= c).all(axis=0) & (c <= np.maximum(a, b)).all(axis=0)
    if hit.any():
        raise DataError("landmark polygon must be simple (non self-intersecting)")


@dataclass(frozen=True)
class RoiPolygon:
    """A landmark polygon of at least four finite vertices within ``±_MAX_DIM`` (else ValueError), simple by
    construction (else DataError). No frame is larger than the cap, which keeps the simplicity check finite."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 4:
            raise ValueError(f"a landmark polygon needs at least 4 points, got {len(pts)}")
        coords = [c for pt in pts for c in pt]
        if not all(math.isfinite(c) for c in coords):
            raise ValueError("non-finite landmark")
        if far := [c for c in coords if abs(c) > _MAX_DIM]:
            raise ValueError(f"landmark coordinate {far[0]!r} is outside [-{_MAX_DIM}, {_MAX_DIM}]")
        _check_simple_polygon(pts)
        object.__setattr__(self, "points", pts)

    def bbox(self) -> RoiBox:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        x0 = int(math.floor(min(xs)))
        y0 = int(math.floor(min(ys)))
        x1 = int(math.ceil(max(xs)))
        y1 = int(math.ceil(max(ys)))
        return RoiBox(x0, y0, max(x1 - x0, 1), max(y1 - y0, 1))


def _frame_order_error(previous: int | None, frame: int) -> str | None:
    """The frame-order rule a ROI entry at ``frame`` after one at ``previous`` (None: the first) breaks, or None."""
    if previous is None:
        return None if frame == 0 else f"the first ROI entry must be at frame 0, got {frame}"
    return None if frame > previous else "frame indices must be strictly increasing"


@dataclass(frozen=True)
class RoiTrack:
    """Per-frame regions of interest from frame 0 on, with carry-forward inheritance."""

    frames: tuple[int, ...]
    entries: tuple

    def __post_init__(self):
        frames = tuple(int(f) for f in self.frames)
        if len(frames) != len(self.entries) or not frames:
            raise ValueError("frames and entries must be non-empty and parallel")
        if broken := next(filter(None, map(_frame_order_error, (None,) + frames, frames)), None):
            raise ValueError(broken)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "entries", tuple(self.entries))

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
    on. Boxes and the bounding boxes of polygons must lie inside the frame,
    and polygons must be simple (see :class:`RoiPolygon`).
    """
    path = Path(path)
    frames: list[int] = []
    entries: list = []
    for cells, error in _rows(path, _read_lines(path)):
        try:
            frame_idx = int(cells[0])
        except ValueError:
            raise error("unparsable frame index") from None
        if abs(frame_idx) > _MAX_FRAMES:
            raise error(f"frame index is outside [-{_MAX_FRAMES}, {_MAX_FRAMES}]")
        if broken := _frame_order_error(frames[-1] if frames else None, frame_idx):
            raise error(broken)
        if len(cells) == 5:
            kind, number, build = "box", int, lambda c: RoiBox(*c)
        elif len(cells) >= 9 and len(cells) % 2 == 1:
            kind, number, build = "landmark", float, lambda c: RoiPolygon(tuple(zip(c[0::2], c[1::2])))
        else:
            raise error(f"expected 5 cells (box) or an odd count >= 9 (landmarks), got {len(cells)}")
        try:
            coords = [number(c) for c in cells[1:]]
        except ValueError:
            raise error(f"unparsable {kind} coordinates") from None
        if kind == "box" and any(abs(c) > _MAX_DIM for c in coords):
            raise error(f"box cell is outside [-{_MAX_DIM}, {_MAX_DIM}]")
        try:
            entry = build(coords)
        except ValueError as exc:
            raise error(str(exc)) from None
        b = entry.bbox()
        if not b.within(frame_width, frame_height):
            extent = kind if isinstance(entry, RoiBox) else f"{kind} bounding box"
            raise error(f"{extent} ({b.x},{b.y},{b.w},{b.h}) exceeds the {frame_width}x{frame_height} frame")
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
                # Shortest repr reads back exactly; whole values drop the ".0".
                coords = ",".join(repr(v).removesuffix(".0") for pt in entry.points for v in pt)
                fh.write(f"{frame_idx},{coords}\n")


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def read_ground_truth(path) -> HrEstimate:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "hr_bpm" not in payload:
        raise FormatError("expected an object with an 'hr_bpm' key", path=str(path))
    try:
        return HrEstimate(bpm=_check_number("hr_bpm", payload["hr_bpm"], optional=False), method="synthetic")
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad hr_bpm value: {exc}", path=str(path)) from None


def write_ground_truth(bpm: float, path) -> None:
    Path(path).write_text(json.dumps({"hr_bpm": float(bpm)}) + "\n", encoding="utf-8")
