"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``rppgbench`` modules from the
outside: each wrapper is installed in every module namespace that holds the
original function object (and in ``bench.ALGORITHMS``), so calls are seen
where the caller looks the name up, not only where it is defined. Nothing
under ``src/`` changes; :meth:`Patches.restore` puts every original back.

A span records its name, the sequence evaluation it belongs to, its parent,
and its busy seconds. Parents come from a thread-local stack; spans opened
on a worker thread of ``evaluate``'s pool hang under the ``evaluate`` span
that started the pool. Every sequence evaluation (``load_bundle`` up to the
end of the algorithm runner) is one ``bench.seq`` span with its own id.
Spans stay in memory; :func:`layer_metrics` reduces them at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import Counter
from pathlib import Path

PACKAGE = "rppgbench"


class Span:
    __slots__ = ("name", "seq", "parent", "start", "busy", "child")

    def __init__(self, name, seq, parent, start):
        self.name = name
        self.seq = seq
        self.parent = parent
        self.start = start
        self.busy = 0.0
        self.child = 0.0

    @property
    def self_s(self) -> float:
        return self.busy - self.child


class Tracer:
    """Spans and exact counters for one traced pass over a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list] = {}
        self.sequences: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent: Span | None = None
        self._next_seq = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        span = Span(name, getattr(self._local, "seq", None), parent, time.perf_counter())
        with self._lock:
            self.spans.append(span)
        return span

    def _open(self, name: str) -> Span:
        span = self._new_span(name)
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        elapsed = time.perf_counter() - span.start
        self._stack().pop()
        with self._lock:
            span.busy += elapsed
            if span.parent is not None:
                span.parent.child += elapsed

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def record(self, key: str, value: float) -> None:
        """Keep a float sample; reduce with ``math.fsum`` so thread order cannot matter."""
        with self._lock:
            self.values.setdefault(key, []).append(value)

    def _begin_sequence(self, sequence_id: str) -> None:
        self._end_sequence()  # a failed sequence leaves its span open
        with self._lock:
            self._next_seq += 1
            self.sequences.add(str(sequence_id))
            self._local.seq = self._next_seq
        self._local.seq_span = self._open("bench.seq")

    def _end_sequence(self) -> None:
        span = getattr(self._local, "seq_span", None)
        if span is not None:
            self._close(span)
            self._local.seq_span = None
            self._local.seq = None

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, func, name: str, label=None, on_result=None):
        """Time every call of ``func`` as one span named ``name[.label]``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            self.add(f"{name}.calls")
            span = self._open(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def generator_wrapper(self, func, name: str, on_item=None):
        """Time a generator function by the busy time of each ``next``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.add(f"{name}.calls")
            return self._drive(func(*args, **kwargs), self._new_span(name), on_item)

        return wrapper

    def _drive(self, inner, span: Span, on_item):
        while True:
            self._stack().append(span)
            start = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                elapsed = time.perf_counter() - start
                self._stack().pop()
                with self._lock:
                    span.busy += elapsed
                    if span.parent is not None:
                        span.parent.child += elapsed
            if on_item is not None:
                on_item(item)
            yield item

    def sequence_start_wrapper(self, func, name: str):
        """``load_bundle``: opens the sequence span, then times itself."""
        timed = self.span_wrapper(func, name)

        @functools.wraps(func)
        def wrapper(dataset_root, sequence_id, *args, **kwargs):
            self._begin_sequence(sequence_id)
            return timed(dataset_root, sequence_id, *args, **kwargs)

        return wrapper

    def sequence_end_wrapper(self, func):
        """An algorithm runner: closes the sequence span when it returns."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            finally:
                self._end_sequence()

        return wrapper

    def pool_wrapper(self, func, name: str):
        """``evaluate``: parent of its pool's sequence spans; counts capacity."""
        params = inspect.signature(func).parameters
        position = list(params).index("jobs")
        default_jobs = params["jobs"].default

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            jobs = kwargs.get("jobs", args[position] if len(args) > position else default_jobs)
            self.add(f"{name}.calls")
            span = self._open(name)
            outer = self._pool_parent
            self._pool_parent = span
            try:
                return func(*args, **kwargs)
            finally:
                self._pool_parent = outer
                self._close(span)
                self.add("bench.pool.capacity_s", span.busy * max(1, int(jobs)))

        return wrapper


class Patches:
    """Replace function objects across the package's modules; undo on exit."""

    def __init__(self):
        self._undo: list = []

    def replace(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
        registry = getattr(sys.modules.get(f"{PACKAGE}.bench"), "ALGORITHMS", {})
        for key, entry in list(registry.items()):
            if any(item is original for item in entry):
                registry[key] = tuple(replacement if item is original else item for item in entry)
                self._undo.append((registry, key, entry))

    def restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


# ---------------------------------------------------------------------------
# the layers of rppgbench
# ---------------------------------------------------------------------------

def _strategy(args, kwargs) -> str:
    return args[2] if len(args) > 2 else kwargs.get("strategy", "bbox")


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the evaluation layers: bench, io, roi, chrom, licvpr, ssr, signals, hr."""
    from rppgbench import bench, chrom, hr, io, licvpr, roi, signals, ssr

    t = tracer

    def wrap(module, name, wrapper_factory=None, **kwargs):
        original = getattr(module, name)
        short = module.__name__.rsplit(".", 1)[-1]
        factory = wrapper_factory or t.span_wrapper
        patches.replace(original, factory(original, f"{short}.{name}", **kwargs))

    def diag_frames(r, fallback_fraction):
        t.add("roi.fallback_frames", round(fallback_fraction * len(r)))
        t.add("roi.diag_frames", len(r))

    def on_pixels(item):
        pixels, _ = item
        t.add("roi.frames")
        t.add("roi.selected_px", int(pixels.shape[0]))

    wrap(bench, "load_bundle", t.sequence_start_wrapper)
    wrap(bench, "load_ground_truth")
    wrap(bench, "evaluate", t.pool_wrapper)
    wrap(bench, "greedy_search")
    for runner in ("run_chrom", "run_licvpr", "run_ssr"):
        original = getattr(bench, runner)
        patches.replace(original, t.sequence_end_wrapper(original))
    wrap(io, "read_rvid", on_result=lambda a, k, r: t.add("io.read_rvid.bytes", Path(a[0]).stat().st_size))
    wrap(io, "read_roi_track")
    wrap(io, "read_physio_csv", on_result=lambda a, k, r: t.add("io.read_physio_csv.rows", len(r.samples)))
    wrap(roi, "fit_skin_model")
    wrap(roi, "mean_rgb_trace", label=_strategy, on_result=lambda a, k, r: diag_frames(r, r.fallback_fraction))
    wrap(roi, "iter_roi_pixels", t.generator_wrapper, on_item=on_pixels)
    wrap(chrom, "chrom_pulse")
    wrap(chrom, "window_starts", on_result=lambda a, k, r: t.add("chrom.windows", len(r)))
    wrap(licvpr, "background_trace")
    wrap(licvpr, "licvpr_pulse", on_result=lambda a, k, r: t.record("licvpr.discarded_frac", r.discarded_fraction))
    wrap(ssr, "ssr_pulse", on_result=lambda a, k, r: diag_frames(r, r.fallback_fraction))
    wrap(ssr, "frame_eigen")
    for name in ("bandpass", "detrend_smoothness_priors", "nlms_rectify", "hann_overlap_add"):
        wrap(signals, name)
    wrap(hr, "estimate_hr_spectral", on_result=lambda a, k, r: t.add("hr.low_confidence", int(r.low_confidence)))
    wrap(hr, "detect_peaks")


def instrument_setup(tracer: Tracer, patches: Patches) -> None:
    """Wrap the dataset generator: synth.generate and synth.write_bundle."""
    from rppgbench import synth

    def bundle_bytes(directory) -> int:
        return sum(f.stat().st_size for f in Path(directory).iterdir())

    for name, on_result in (
        ("generate", None),
        ("write_bundle", lambda a, k, r: tracer.add("synth.bytes_written", bundle_bytes(r))),
    ):
        original = getattr(synth, name)
        patches.replace(original, tracer.span_wrapper(original, f"synth.{name}", on_result=on_result))


def busy_seconds(tracer: Tracer) -> dict:
    out: dict = {}
    for span in tracer.spans:
        out[span.name] = out.get(span.name, 0.0) + span.busy
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce one traced pass to the per-layer metrics, by name."""
    busy = busy_seconds(tracer)
    c = tracer.counts
    seq_self = sum(s.self_s for s in tracer.spans if s.name == "bench.seq")

    def ratio(num, den):
        return num / den if den else 0.0

    discarded = tracer.values.get("licvpr.discarded_frac", [])

    return {
        "bench.load_bundle.calls": c["bench.load_bundle.calls"],
        "bench.load_bundle.per_distinct_seq": ratio(c["bench.load_bundle.calls"], len(tracer.sequences)),
        "bench.load_ground_truth.s": busy.get("bench.load_ground_truth", 0.0),
        "bench.seq.self_s": seq_self,
        "bench.pool.busy_frac": ratio(busy.get("bench.seq", 0.0), c["bench.pool.capacity_s"]),
        "io.read_rvid.s": busy.get("io.read_rvid", 0.0),
        "io.read_rvid.bytes": c["io.read_rvid.bytes"],
        "io.read_roi_track.s": busy.get("io.read_roi_track", 0.0),
        "io.read_physio_csv.rows": c["io.read_physio_csv.rows"],
        "roi.fit_skin_model.s": busy.get("roi.fit_skin_model", 0.0),
        "roi.mean_rgb_trace.skin.s": busy.get("roi.mean_rgb_trace.skin", 0.0),
        "roi.mean_rgb_trace.mask.s": busy.get("roi.mean_rgb_trace.mask", 0.0),
        "roi.iter_roi_pixels.s": busy.get("roi.iter_roi_pixels", 0.0),
        "roi.frames": c["roi.frames"],
        "roi.selected_px": c["roi.selected_px"],
        "roi.fallback_frac": ratio(c["roi.fallback_frames"], c["roi.diag_frames"]),
        "chrom.chrom_pulse.s": busy.get("chrom.chrom_pulse", 0.0),
        "chrom.windows": c["chrom.windows"],
        "licvpr.background_trace.s": busy.get("licvpr.background_trace", 0.0),
        "licvpr.licvpr_pulse.s": busy.get("licvpr.licvpr_pulse", 0.0),
        "licvpr.discarded_frac": ratio(math.fsum(discarded), len(discarded)),
        "ssr.ssr_pulse.s": busy.get("ssr.ssr_pulse", 0.0),
        "ssr.frame_eigen.calls": c["ssr.frame_eigen.calls"],
        "ssr.frame_eigen.s": busy.get("ssr.frame_eigen", 0.0),
        "signals.bandpass.calls": c["signals.bandpass.calls"],
        "signals.bandpass.s": busy.get("signals.bandpass", 0.0),
        "signals.detrend_smoothness_priors.s": busy.get("signals.detrend_smoothness_priors", 0.0),
        "signals.nlms_rectify.s": busy.get("signals.nlms_rectify", 0.0),
        "signals.hann_overlap_add.s": busy.get("signals.hann_overlap_add", 0.0),
        "hr.estimate_hr_spectral.s": busy.get("hr.estimate_hr_spectral", 0.0),
        "hr.detect_peaks.calls": c["hr.detect_peaks.calls"],
        "hr.low_confidence": c["hr.low_confidence"],
    }


def setup_metrics(tracer: Tracer) -> dict:
    busy = busy_seconds(tracer)
    return {
        "synth.generate.s": busy.get("synth.generate", 0.0),
        "synth.write_bundle.s": busy.get("synth.write_bundle", 0.0),
        "synth.bytes_written": tracer.counts["synth.bytes_written"],
    }


#: Per-layer metrics that must repeat exactly from one traced pass to the next.
EXACT = frozenset({
    "bench.load_bundle.calls",
    "bench.load_bundle.per_distinct_seq",
    "io.read_rvid.bytes",
    "io.read_physio_csv.rows",
    "roi.frames",
    "roi.selected_px",
    "roi.fallback_frac",
    "chrom.windows",
    "licvpr.discarded_frac",
    "ssr.frame_eigen.calls",
    "signals.bandpass.calls",
    "hr.detect_peaks.calls",
    "hr.low_confidence",
    "synth.bytes_written",
})
