"""Protocol-driven evaluation, reporting, and greedy stage-wise search."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

from .chrom import ChromParams, chrom_pulse
from .errors import EXPECTED_ERRORS, DataError, FormatError, UndefinedCorrelationError, _memo
from .hr import HrEstimate, detect_peaks, estimate_hr_spectral, hr_from_peaks
from .io import (
    FrameSequence,
    ProtocolIndex,
    RoiTrack,
    _check_number,
    _read_json,
    read_ground_truth,
    read_physio_csv,
    read_roi_track,
    read_rvid,
)
from .licvpr import LiParams, licvpr_pulse
from .roi import pixel_features, pixel_key
from .signals import PulseSignal, pearson, rmse
from .ssr import SsrParams, ssr_pulse, trace_eigens
from .synth import BUNDLE_FILES

__all__ = [
    "SequenceBundle",
    "SequenceFeatures",
    "FeatureStore",
    "SequenceResult",
    "EvalReport",
    "SearchStage",
    "SearchResult",
    "ALGORITHMS",
    "OBJECTIVES",
    "REFERENCE_RESULTS",
    "build_params",
    "read_bundle",
    "load_bundle",
    "extract_pulse",
    "evaluate",
    "greedy_search",
    "emit_report",
    "read_report",
]

# ---------------------------------------------------------------------------
# reference results from the literature
# ---------------------------------------------------------------------------

#: Published results of these three baselines on the access-gated video
#: corpora. They document where each method landed historically and are kept
#: for comparison only; reproducing them requires datasets this artifact
#: cannot ship. Keys: corpus/protocol -> algorithm -> metric.
REFERENCE_RESULTS = {
    # 527 usable sequences, frames 306..2135 of each recording.
    "mahnob-527": {
        "licvpr": {"rmse_bpm": 8.12, "pearson_rho": 0.70},
        "chrom": {"rmse_bpm": 15.40, "pearson_rho": 0.33},
        "ssr": {"rmse_bpm": 18.4, "pearson_rho": 0.43},
    },
    # Subject-disjoint train/test split of the same corpus, Pearson rho.
    "mahnob-split": {
        "licvpr": {"train": 0.49, "test": 0.45},
        "chrom": {"train": 0.15, "test": 0.14},
        "ssr": {"train": 0.17, "test": 0.05},
    },
    "cohface-studio": {
        "licvpr": {"train": -0.16, "test": -0.61},
        "chrom": {"train": 0.23, "test": 0.43},
        "ssr": {"train": 0.07, "test": -0.31},
    },
    # Parameters tuned on one corpus, tested on the other.
    "cross-database": {
        "licvpr": {"mahnob_to_cohface": -0.20, "cohface_to_mahnob": 0.25},
        "chrom": {"mahnob_to_cohface": 0.51, "cohface_to_mahnob": 0.10},
        "ssr": {"mahnob_to_cohface": -0.15, "cohface_to_mahnob": 0.00},
    },
    # Studio-tuned parameters applied to the natural-light test set.
    "cohface-natural-mismatch": {
        "licvpr": {"test": -0.24},
        "chrom": {"test": -0.03},
        "ssr": {"test": 0.00},
    },
    # Pixel-selection comparison on the studio test set, Pearson rho.
    "cohface-roi": {
        "licvpr": {"bbox": -0.29, "skin": -0.16, "mask": -0.44},
        "chrom": {"bbox": 0.30, "skin": 0.27, "mask": 0.30},
        "ssr": {"bbox": 0.26, "skin": 0.09, "mask": 0.65},
    },
}


# ---------------------------------------------------------------------------
# per-sequence pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceBundle:
    """One sequence's files loaded for processing."""

    sequence: FrameSequence
    roi: RoiTrack
    directory: Path


def read_bundle(video, roi) -> SequenceBundle:
    """Open a video (see :func:`read_rvid`) and read its ROI track; the bundle's directory is the video's."""
    video = Path(video)
    sequence = read_rvid(video)
    track = read_roi_track(roi, sequence.width, sequence.height)
    return SequenceBundle(sequence=sequence, roi=track, directory=video.parent)


def load_bundle(dataset_root, sequence_id: str) -> SequenceBundle:
    """Read the bundle stored under ``dataset_root / sequence_id``."""
    directory = Path(dataset_root) / sequence_id
    return read_bundle(directory / BUNDLE_FILES["video"], directory / BUNDLE_FILES["roi"])


def load_ground_truth(bundle: SequenceBundle) -> HrEstimate:
    """Ground truth for a bundle: the recorded value, else beats of the BVP."""
    gt_path = bundle.directory / BUNDLE_FILES["ground_truth"]
    if gt_path.exists():
        return read_ground_truth(gt_path)
    meta_path = bundle.directory / BUNDLE_FILES["physio_meta"]
    bvp = read_physio_csv(bundle.directory / BUNDLE_FILES["physio"], meta_path)
    if bvp.kind != "bvp":
        raise FormatError(f"signal_type is {bvp.kind!r}; ground truth needs a 'bvp' recording", path=str(meta_path))
    return hr_from_peaks(detect_peaks(bvp), bvp.fs)


class SequenceFeatures:
    """One sequence's features for one evaluation, each computed on first use.

    ``features[key]`` is the feature ``key`` names: ``("truth",)`` for the ground truth (see
    :func:`load_ground_truth`), ``pixel_key("eigens", strategy, skin_tau)`` for ``ssr.trace_eigens``
    of the selection's ``"corr"`` trace, or a :func:`~rppgbench.roi.pixel_features` key. It is
    looked up in ``cache`` (a :class:`FeatureStore`'s entry for the sequence, or a private dict).
    On a miss the bundle is opened once and held by this object only, and the feature, or the
    expected error that failed it, is stored; a stored failure is raised again as a copy, without
    reading a file again (see :func:`~rppgbench.errors._memo`). The bundle holds no frames.
    A pixel feature that misses is computed in one pass over the video file with every feature
    of ``planned`` not yet stored, so the file must not change while the sequence is evaluated.
    A selection's ``"rgb"`` trace is served from its stored ``"corr"`` trace, or failure, when
    there is one.
    """

    def __init__(self, cache: dict, load, planned=()):
        self._cache = cache
        self._load = load
        self._planned = planned
        self._bundle = None

    @classmethod
    def of(cls, bundle: SequenceBundle, planned=()) -> "SequenceFeatures":
        """The features of a bundle already in memory, cached nowhere else."""
        return cls({}, lambda: bundle, planned)

    @property
    def bundle(self) -> SequenceBundle:
        """The sequence's bundle, read on first use."""
        if self._bundle is None:
            self._bundle = self._load()
        return self._bundle

    def __getitem__(self, key: tuple):
        if key[0] == "rgb" and ("corr", *key[1:]) in self._cache:
            key = ("corr", *key[1:])

        def compute() -> dict:
            if key == ("truth",):
                # On a miss the bundle is read before the BVP, so a sequence whose
                # video and BVP are both bad fails on the video.
                return {key: load_ground_truth(self.bundle)}
            if key[0] == "eigens":  # SSR's windows change, its eigen-decompositions do not
                return {key: trace_eigens(self[("corr", *key[1:])])}
            planned = [k for k in self._planned if k not in self._cache]
            return pixel_features(self.bundle.sequence, self.bundle.roi, [key, *planned])

        return _memo(self._cache, key, compute)


class FeatureStore:
    """The features of one dataset's sequences, keyed by sequence id.

    ``greedy_search`` shares one store between its candidates, so each
    sequence's truth, RGB traces, SSR eigen-decompositions and background
    traces are computed once per feature setting, and fail once. A run names
    the pixel features it will read with :meth:`plan` before its first
    evaluation, and the first pass over each sequence computes all of them.
    The store holds no frames, and no feature computation holds a whole
    video: a pass reads a few frames at a time from the file, which must not
    change while the store serves its sequence. A bundle opened on a miss
    lives only as long as the :class:`SequenceFeatures` that opened it.
    """

    def __init__(self, dataset_root):
        self.root = Path(dataset_root)
        self._sequences: dict[str, dict] = {}
        self._planned: dict[tuple, None] = {}

    def plan(self, keys) -> None:
        """Add pixel-feature keys (see :func:`~rppgbench.roi.pixel_features`) that later passes compute too."""
        self._planned.update(dict.fromkeys(keys))

    def sequence(self, sequence_id: str) -> SequenceFeatures:
        cache = self._sequences.setdefault(sequence_id, {})
        return SequenceFeatures(cache, lambda: load_bundle(self.root, sequence_id), tuple(self._planned))


def pulse_chrom(features: SequenceFeatures, params: ChromParams) -> PulseSignal:
    return chrom_pulse(features[pixel_key("rgb", params.strategy, params.skin_tau)], params)


def pulse_licvpr(features: SequenceFeatures, params: LiParams) -> PulseSignal:
    # The trace first: a sequence whose trace and background both fail reports the trace's failure.
    trace = features[pixel_key("rgb", params.strategy, params.skin_tau)]
    return licvpr_pulse(trace, features[("background", params.background_margin)] if params.rectify else None, params)


def pulse_ssr(features: SequenceFeatures, params: SsrParams) -> PulseSignal:
    selection = (params.strategy, params.skin_tau)
    return ssr_pulse(features[pixel_key("corr", *selection)], params, features[pixel_key("eigens", *selection)])


def _runner(pulse_fn):
    """The bpm runner of ``pulse_fn``: the spectral HR of its pulse, in the params' band."""
    def run(features: SequenceFeatures, params) -> float:
        return estimate_hr_spectral(pulse_fn(features, params), params.band).bpm

    return run


run_chrom, run_licvpr, run_ssr = (_runner(f) for f in (pulse_chrom, pulse_licvpr, pulse_ssr))


#: algorithm tag -> (parameter dataclass, pulse extractor, bpm runner, reads); the extractor and the
#: runner take ``(SequenceFeatures, params)``, and ``reads(params)`` lists the
#: :func:`~rppgbench.roi.pixel_features` keys a run with ``params`` reads. Entries are plain tuples,
#: read by position: the span tracer (``perfbench/spans.py``) rebuilds each entry it wraps as a tuple.
ALGORITHMS = {
    "chrom": (ChromParams, pulse_chrom, run_chrom, lambda p: [pixel_key("rgb", p.strategy, p.skin_tau)]),
    "licvpr": (LiParams, pulse_licvpr, run_licvpr, lambda p: [pixel_key("rgb", p.strategy, p.skin_tau)]
               + ([("background", p.background_margin)] if p.rectify else [])),
    "ssr": (SsrParams, pulse_ssr, run_ssr, lambda p: [pixel_key("corr", p.strategy, p.skin_tau)]),
}


def extract_pulse(bundle: SequenceBundle, algorithm: str, params=None) -> PulseSignal:
    """Run one algorithm's pulse extraction on a loaded bundle."""
    (_, pulse_fn, _, reads), params = _resolve(algorithm, params)
    return pulse_fn(SequenceFeatures.of(bundle, reads(params)), params)


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def _coerce_value(raw, default, key: str):
    """Coerce an override (possibly a CLI string) to the field's type."""
    value = raw
    if isinstance(raw, str):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ValueError(f"{key} expects true/false, got {raw!r}")
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
            return float(value)
        raise ValueError(f"{key} expects a finite number, got {raw!r}")
    if isinstance(default, str):
        if isinstance(value, (str, int, float)):
            return str(raw)
        raise ValueError(f"{key} expects a string, got {raw!r}")
    # Integer fields; the one field defaulting to None (SsrParams.window_l)
    # is an integer that may also be null.
    if default is None and value is None:
        return None
    if type(value) is int or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{key} expects an integer, got {raw!r}")


def build_params(algorithm: str, overrides=None):
    """Build an algorithm's parameter object from ``{field: value}`` overrides.

    Every key must name a field of the algorithm's parameter class; unknown
    keys and values the class rejects raise ValueError.
    """
    return _resolve(algorithm, dict(overrides or {}))[1]


def _resolve(algorithm: str, params):
    """The registry entry of ``algorithm`` and its parameter object.

    ``params`` is None (the defaults), a dict of overrides (see
    :func:`build_params`) or an instance of the algorithm's parameter class.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    entry = ALGORITHMS[algorithm]
    cls = entry[0]
    if isinstance(params, cls):
        return entry, params
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"params must be a dict or {cls.__name__}, got {type(params).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in (params or {}).items():
        if key not in fields:
            raise ValueError(f"unknown parameter {key!r} for algorithm {algorithm!r}")
        kwargs[key] = _coerce_value(raw, fields[key].default, key)
    return entry, cls(**kwargs)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceResult:
    sequence_id: str
    status: str  # "ok" | "failed"
    estimated_bpm: float | None
    ground_truth_bpm: float | None
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("ok", "failed"):
            raise ValueError(f"status must be 'ok' or 'failed', got {self.status!r}")
        _check_number("estimated_bpm", self.estimated_bpm)
        _check_number("ground_truth_bpm", self.ground_truth_bpm)
        if (self.estimated_bpm is None, self.ground_truth_bpm is None) != (self.status == "failed",) * 2:
            raise ValueError(f"status {self.status!r} needs {'no' if self.status == 'failed' else 'both'} bpm values")


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    algorithm: str
    split: str
    params: dict
    sequences: tuple[SequenceResult, ...]
    rmse: float
    pearson_rho: float | None  # None when every truth or every estimate is equal

    def __post_init__(self):
        _check_number("rmse", self.rmse, optional=False)
        _check_number("pearson_rho", self.pearson_rho)

    @property
    def ok_count(self) -> int:
        return sum(1 for s in self.sequences if s.status == "ok")

    @property
    def failed_count(self) -> int:
        return sum(1 for s in self.sequences if s.status == "failed")


def evaluate(
    protocol: ProtocolIndex,
    split: str,
    algorithm: str,
    dataset_root,
    params=None,
    jobs: int = 1,
    store: FeatureStore | None = None,
) -> EvalReport:
    """Run one algorithm over one protocol split and aggregate the errors.

    ``algorithm`` is a key of :data:`ALGORITHMS`; extensions and test stubs
    register an entry there. ``params`` is None (the defaults), a dict of
    overrides (see :func:`build_params`) or a parameter object. A sequence
    that fails with one of :data:`~rppgbench.errors.EXPECTED_ERRORS`
    (a :class:`DataError`, a numeric degeneracy or an ``OSError``) is recorded
    as failed and excluded from the aggregates; any other exception is a bug
    and propagates. Fewer than two successes raise :class:`DataError`, which
    names each failed sequence and its reason; when every truth or every
    estimate is equal, ``pearson_rho`` is None.
    Sequences run one at a time on the calling thread, sorted by id, so row
    order never matters; ``jobs`` is accepted and selects nothing until worker
    processes arrive. Features are read through ``store``, a fresh
    :class:`FeatureStore` unless the caller shares one over ``dataset_root``.
    """
    dataset_root = Path(dataset_root)
    if store is None:
        store = FeatureStore(dataset_root)
    elif store.root != dataset_root:
        raise ValueError(f"feature store of {store.root} cannot serve {dataset_root}")
    (_, _, runner, reads), params = _resolve(algorithm, params)
    store.plan(reads(params))
    ordered = sorted(protocol.split_entries(split), key=lambda e: e.sequence_id)

    # Missing files are a dataset problem, not a per-sequence one: fail fast
    # before spending any compute, naming the first absent path.
    for entry in ordered:
        for key in ("video", "roi"):
            path = dataset_root / entry.sequence_id / BUNDLE_FILES[key]
            if not path.exists():
                raise FileNotFoundError(str(path))

    def process(entry) -> SequenceResult:
        features = store.sequence(entry.sequence_id)
        try:
            truth = features[("truth",)]
            bpm = float(runner(features, params))
            return SequenceResult(entry.sequence_id, "ok", bpm, truth.bpm)
        except EXPECTED_ERRORS as exc:
            return SequenceResult(
                entry.sequence_id, "failed", None, None, f"{type(exc).__name__}: {exc}"
            )

    results = [process(e) for e in ordered]
    ok = [r for r in results if r.status == "ok"]
    if len(ok) < 2:
        failed = ", ".join(f"{r.sequence_id} ({r.detail})" for r in results if r.status == "failed")
        raise DataError(
            f"only {len(ok)} of {len(results)} sequences succeeded; aggregates need at least 2"
            + (f"; failed: {failed}" if failed else "")
        )
    estimates = [r.estimated_bpm for r in ok]
    truths = [r.ground_truth_bpm for r in ok]
    try:
        rho = pearson(estimates, truths)
    except UndefinedCorrelationError:
        rho = None
    return EvalReport(protocol=protocol.name, algorithm=algorithm, split=split, params=dataclasses.asdict(params),
                      sequences=tuple(results), rmse=rmse(estimates, truths), pearson_rho=rho)


# ---------------------------------------------------------------------------
# greedy stage-wise search
# ---------------------------------------------------------------------------

OBJECTIVES = ("pearson", "neg_rmse")


@dataclass(frozen=True)
class SearchStage:
    """One search stage: an ordered list of (parameter, candidate grid)."""

    name: str
    grid: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        grid = tuple((str(k), tuple(v)) for k, v in self.grid)
        if not grid:
            raise DataError(f"stage {self.name!r} has an empty grid")
        for key, candidates in grid:
            if not candidates:
                raise DataError(f"stage {self.name!r}: parameter {key!r} has no candidates")
        object.__setattr__(self, "grid", grid)

    @classmethod
    def from_dict(cls, payload: dict, default_name: str = "stage") -> "SearchStage":
        """A stage from ``{"name": ..., "grid": {param: [candidates]}}``; else DataError."""
        grid = payload.get("grid") if isinstance(payload, dict) else None
        if not isinstance(grid, dict) or not all(isinstance(v, (list, tuple)) for v in grid.values()):
            raise DataError(f"stage {default_name!r} must be an object with a 'grid' mapping to lists")
        return cls(name=str(payload.get("name", default_name)), grid=tuple(grid.items()))


@dataclass(frozen=True)
class SearchResult:
    best_params: dict
    objective: str
    trace: tuple[dict, ...]
    n_evaluations: int

    def to_jsonable(self) -> dict:
        return {
            "best_params": dict(self.best_params),
            "objective": self.objective,
            "n_evaluations": self.n_evaluations,
            "trace": [dict(stage) for stage in self.trace],
        }


def _stage_assignments(stages, algorithm: str, defaults: dict) -> tuple[dict, list, list]:
    """The coerced defaults, each stage's grid combinations built on them, and the pixel features they read."""
    keys = [key for stage in stages for key, _ in stage.grid]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"parameter {key!r} appears in more than one stage")
    (*_, reads), params = _resolve(algorithm, defaults)
    fixed = {key: getattr(params, key) for key in defaults}
    per_stage, planned = [], []
    for stage in stages:
        names = [key for key, _ in stage.grid]
        assignments = []
        for combo in itertools.product(*(candidates for _, candidates in stage.grid)):
            params = build_params(algorithm, {**fixed, **dict(zip(names, combo))})
            assignments.append({key: getattr(params, key) for key in names})
            planned += reads(params)
        per_stage.append(assignments)
    return fixed, per_stage, planned


def _failed_row(candidate: dict, exc: Exception) -> dict:
    return {"params": candidate, "objective_value": None, "error": f"{type(exc).__name__}: {exc}"}


def greedy_search(
    stages,
    protocol: ProtocolIndex,
    algorithm: str,
    dataset_root,
    objective: str = "pearson",
    defaults=None,
    split: str = "train",
    jobs: int = 1,
) -> SearchResult:
    """Stage-wise exhaustive search; earlier stages stay fixed at their optima.

    Within a stage every combination of that stage's grids is evaluated with
    earlier winners applied and all later parameters at their defaults. Ties
    keep the first candidate in grid order. The total number of evaluations is
    exactly the sum over stages of the per-stage grid product. Every
    combination is built on the defaults before the first evaluation, and the
    result holds the coerced values under the keys given. A candidate that only
    earlier winners make invalid, or under ``pearson`` has an undefined
    correlation, is recorded as failed. One :class:`FeatureStore` serves every
    candidate, so a stage that changes only pulse parameters reads no video,
    and the first pass over each video computes every pixel feature that the
    combinations read. Equal parameters are evaluated once per call, failure
    included. ``jobs`` is passed to :func:`evaluate`, where it selects nothing.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("need at least one search stage")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    fixed, per_stage, planned = _stage_assignments(stages, algorithm, dict(defaults or {}))
    store = FeatureStore(dataset_root)
    store.plan(planned)

    def score(params) -> dict:
        report = evaluate(protocol, split, algorithm, dataset_root, params=params, jobs=jobs, store=store)
        if (value := report.pearson_rho if objective == "pearson" else -report.rmse) is None:
            raise UndefinedCorrelationError()
        return {params: value}

    outcomes = {}  # built params -> score, or the expected error that failed them
    trace: list[dict] = []
    for stage, assignments in zip(stages, per_stage):
        best_score = best_assignment = None
        rows = []
        for assignment in assignments:
            candidate = {**fixed, **assignment}
            try:
                # Every combination builds on the defaults, so only an earlier winner breaks it.
                params = build_params(algorithm, candidate)
            except ValueError as exc:
                rows.append(_failed_row(candidate, exc))
                continue
            try:
                value = _memo(outcomes, params, lambda: score(params))
            except EXPECTED_ERRORS as exc:
                rows.append(_failed_row(candidate, exc))
                continue
            rows.append({"params": candidate, "objective_value": value, "error": None})
            if best_score is None or value > best_score:
                best_score = value
                best_assignment = assignment
        if best_assignment is None:
            raise DataError(f"all candidates failed in search stage {stage.name!r}")
        fixed.update(best_assignment)
        trace.append({"stage": stage.name, "evaluations": rows, "selected": dict(best_assignment),
                      "objective_value": best_score})
    return SearchResult(best_params=fixed, objective=objective, trace=tuple(trace),
                        n_evaluations=sum(map(len, per_stage)))


# ---------------------------------------------------------------------------
# reports on disk
# ---------------------------------------------------------------------------

def _float_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _report_format(path: Path) -> str:
    fmt = path.suffix.lstrip(".").lower() or "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}, expected csv or json")
    return fmt


def emit_report(report: EvalReport, path) -> None:
    """Write a report as CSV (rows + rmse/pearson trailer) or JSON, by suffix."""
    path = Path(path)
    if _report_format(path) == "csv":
        # Built in memory and written once, so the file is never left partial.
        text = StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["sequence_id", "status", "estimated_bpm", "ground_truth_bpm", "detail"])
        for s in report.sequences:
            writer.writerow(
                [s.sequence_id, s.status, _float_cell(s.estimated_bpm), _float_cell(s.ground_truth_bpm), s.detail]
            )
        writer.writerow(["rmse", repr(report.rmse)])
        writer.writerow(["pearson", _float_cell(report.pearson_rho)])
        path.write_bytes(text.getvalue().encode("utf-8"))
    else:
        payload = {
            "protocol": report.protocol,
            "algorithm": report.algorithm,
            "split": report.split,
            "params": report.params,
            "rmse": report.rmse,
            "pearson_rho": report.pearson_rho,
            "ok_count": report.ok_count,
            "failed_count": report.failed_count,
            "sequences": [dataclasses.asdict(s) for s in report.sequences],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_report(path) -> EvalReport:
    """Read back a report written by :func:`emit_report`, CSV or JSON by suffix.

    A JSON report reads back structurally equal. A CSV report holds no
    protocol, algorithm, split or params, so those come back as ``""`` and
    ``{}``.
    """
    path = Path(path)
    if _report_format(path) == "json":
        payload = _read_json(path)
        try:
            fields = {f.name: payload[f.name] for f in dataclasses.fields(EvalReport)}
            fields["sequences"] = tuple(SequenceResult(**row) for row in fields["sequences"])
            return EvalReport(**fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"not a JSON report: {type(exc).__name__}: {exc}", path=str(path)) from None
    rows: list[SequenceResult] = []
    trailer: dict[str, float | None] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "sequence_id":
            raise FormatError("missing report header", path=str(path))
        for cells in reader:
            if not cells:
                continue
            try:
                if len(cells) == 2 and cells[0] in ("rmse", "pearson"):  # a sequence row has 4 or 5 cells
                    trailer[cells[0]] = float(cells[1]) if cells[1] or cells[0] == "rmse" else None
                else:
                    estimate, truth = (float(cell) if cell else None for cell in cells[2:4])
                    rows.append(SequenceResult(cells[0], cells[1], estimate, truth, cells[4] if len(cells) > 4 else ""))
            except (IndexError, ValueError):
                raise FormatError(f"row {reader.line_num}: short or invalid report row", path=str(path)) from None
    if len(trailer) < 2:
        raise FormatError("missing rmse/pearson trailer rows", path=str(path))
    return EvalReport("", "", "", {}, tuple(rows), trailer["rmse"], trailer["pearson"])
