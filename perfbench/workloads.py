"""The benchmark's workloads: datasets, measured rounds and correctness checks.

Each workload builds its own synthetic dataset with ``synth.build_dataset``
and drives it through the entry points the CLI uses: ``bench.evaluate`` and
``bench.emit_report`` (JSON) for ``eval-small``, ``bench.greedy_search``
for ``search``. One round runs every algorithm once; a run repeats rounds,
closed loop in this one process, until its measuring time is up.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rppgbench import bench, synth
from rppgbench.io import load_protocol
from rppgbench.signals import pearson, rmse

import spans

ALGORITHMS = ("chrom", "licvpr", "ssr")
#: Seed whose outputs are frozen by SHA-256 in ``golden.json``.
DEFAULT_SEED = 500
GOLDEN = Path(__file__).resolve().parent / "golden.json"
#: Acceptance criterion 1: RMSE at most 2 bpm, Pearson at least 0.95.
RMSE_LIMIT_BPM = 2.0
RHO_FLOOR = 0.95
#: Largest gap between ground truth from BVP peaks and the synthetic rate.
PEAKS_TRUTH_TOL_BPM = 0.5
#: Dataset builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Workers of every measured call. The thread pool of ``evaluate`` runs only
#: in the determinism check, at the affinity CPU count.
JOBS = 1
AFFINITY_CPUS = len(os.sched_getaffinity(0))

#: Greedy stage grids per algorithm. The first stages change only pulse
#: parameters, so a feature cache would hit; the last changes a feature
#: parameter (skin threshold, background margin), so a cache must miss.
SEARCH_STAGES = {
    "chrom": [
        {"name": "window", "grid": {"window_s": [0.8, 1.6, 3.2]}},
        {"name": "band", "grid": {"band_lo": [0.5, 0.67], "band_hi": [3.0, 4.0]}},
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


@dataclass(frozen=True)
class Workload:
    name: str
    config: synth.SynthConfig
    train_hrs: tuple
    test_hrs: tuple
    search: bool  # also: gt.json is deleted, so truth comes from BVP peaks

    @property
    def pairs(self) -> list:
        return [(hr, "train") for hr in self.train_hrs] + [(hr, "test") for hr in self.test_hrs]

    def evaluations(self, algorithm: str) -> int:
        """Evaluations of the split per call for one algorithm."""
        if not self.search:
            return 1
        total = 0
        for stage in SEARCH_STAGES[algorithm]:
            total += int(np.prod([len(v) for v in stage["grid"].values()]))
        return total

    def split_size(self) -> int:
        return len(self.train_hrs if self.search else self.test_hrs)


# Sizes keep one run under a minute on two CPUs. eval-small has the
# acceptance data's frame shape with 4 of its 16 test rates. search uses 20 s
# bundles and the two train sequences, and deletes gt.json so that every
# candidate re-derives its truth from the BVP.
SMALL = synth.SynthConfig(width=64, height=64, fps=20, duration_s=60.0, noise_sd=2.0)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eval-small",
            config=SMALL,
            train_hrs=(65.0,),
            test_hrs=tuple(float(hr) for hr in np.linspace(50.0, 110.0, 4)),
            search=False,
        ),
        Workload(
            name="search",
            config=replace(SMALL, duration_s=20.0),
            train_hrs=(65.0, 95.0),
            test_hrs=(80.0,),
            search=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# set-up (runs in a child process, so its memory peak stays out of the run's)
# ---------------------------------------------------------------------------

def build(workload: Workload, seed: int, root: Path, traced: bool):
    """Build the dataset; returns (seconds, synth layer metrics or None)."""
    tracer = patches = None
    if traced:
        tracer, patches = spans.Tracer(), spans.Patches()
        spans.instrument_setup(tracer, patches)
    try:
        start = time.perf_counter()
        synth.build_dataset(root, workload.pairs, base_config=workload.config, base_seed=seed)
        elapsed = time.perf_counter() - start
    finally:
        if patches is not None:
            patches.restore()
    if workload.search:
        for gt in root.glob(f"*/{synth.BUNDLE_FILES['ground_truth']}"):
            gt.unlink()
    return elapsed, (spans.setup_metrics(tracer) if traced else None)


def set_up(workload: Workload, seed: int, work: Path, traced: bool):
    """Build the dataset (several times untraced); returns (root, times, layers)."""
    repeats = 1 if traced else SETUP_REPEATS
    times = []
    layers = None
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
        for i in range(repeats):
            root = work / f"dataset{i}"
            elapsed, layers = pool.submit(build, workload, seed, root, traced).result()
            times.append(elapsed)
            if i:
                shutil.rmtree(root)
    return work / "dataset0", times, layers


# ---------------------------------------------------------------------------
# measured rounds
# ---------------------------------------------------------------------------

@dataclass
class Round:
    seconds: dict  # algorithm -> wall seconds of its evaluate / greedy_search
    outputs: dict  # algorithm -> bytes of its JSON report / search result
    results: dict  # algorithm -> EvalReport / SearchResult
    layers: dict | None = None


def run_round(workload: Workload, root: Path, protocol, out_dir: Path) -> Round:
    """Every algorithm once; only the evaluate / greedy_search call is timed."""
    seconds, outputs, results = {}, {}, {}
    for algorithm in ALGORITHMS:
        start = time.perf_counter()
        if workload.search:
            stages = [bench.SearchStage.from_dict(s, f"stage{i}") for i, s in enumerate(SEARCH_STAGES[algorithm])]
            result = bench.greedy_search(
                stages, protocol, algorithm, root, objective="neg_rmse", split="train", jobs=JOBS
            )
            seconds[algorithm] = time.perf_counter() - start
            outputs[algorithm] = (json.dumps(result.to_jsonable(), indent=2) + "\n").encode("utf-8")
        else:
            result = bench.evaluate(protocol, "test", algorithm, root, jobs=JOBS)
            seconds[algorithm] = time.perf_counter() - start
            path = out_dir / f"{algorithm}.json"
            bench.emit_report(result, path)
            outputs[algorithm] = path.read_bytes()
        results[algorithm] = result
    return Round(seconds, outputs, results)


def traced_round(workload: Workload, root: Path, protocol, out_dir: Path) -> Round:
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.instrument(tracer, patches)
    try:
        rnd = run_round(workload, root, protocol, out_dir)
    finally:
        patches.restore()
    rnd.layers = spans.layer_metrics(tracer)
    return rnd


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _truths(workload: Workload) -> dict:
    return {f"seq{i:03d}": float(hr) for i, (hr, _) in enumerate(workload.pairs)}


def _check_report(report, truths, from_peaks: bool, label, problems) -> None:
    bad = [s.sequence_id for s in report.sequences if s.status != "ok"]
    if bad:
        problems.append(f"{label}: sequences not ok: {bad}")
        return
    # gt.json holds the synthetic rate exactly; BVP peaks land close to it.
    tolerance = PEAKS_TRUTH_TOL_BPM if from_peaks else 0.0
    for s in report.sequences:
        known = truths[s.sequence_id]
        if abs(s.ground_truth_bpm - known) > tolerance:
            problems.append(f"{label}: {s.sequence_id} truth {s.ground_truth_bpm} vs synthetic {known}")
    estimates = [s.estimated_bpm for s in report.sequences]
    known = [truths[s.sequence_id] for s in report.sequences]
    error = rmse(estimates, known)
    if error > RMSE_LIMIT_BPM:
        problems.append(f"{label}: rmse {error:.3f} bpm against the synthetic rates exceeds {RMSE_LIMIT_BPM}")
    if len(known) > 2 and pearson(estimates, known) < RHO_FLOOR:
        problems.append(f"{label}: pearson {pearson(estimates, known):.4f} below {RHO_FLOOR}")


def check(workload: Workload, seed: int, root: Path, protocol, rounds: list, out_dir: Path) -> list:
    """Every correctness problem of a run; empty when the run is correct."""
    problems = []
    first = rounds[0]
    truths = _truths(workload)
    for i, rnd in enumerate(rounds[1:], start=1):
        for algorithm in ALGORITHMS:
            if rnd.outputs[algorithm] != first.outputs[algorithm]:
                problems.append(f"{algorithm}: round {i} output differs from round 0")
    for algorithm in ALGORITHMS:
        result = first.results[algorithm]
        if workload.search:
            errors = [row["error"] for stage in result.trace for row in stage["evaluations"] if row["error"]]
            if errors:
                problems.append(f"search {algorithm}: failed candidates: {errors}")
                continue
            report = bench.evaluate(protocol, "train", algorithm, root, params=result.best_params, jobs=JOBS)
            if report.rmse != -result.trace[-1]["objective_value"]:
                problems.append(f"search {algorithm}: best rmse {report.rmse} does not match its objective")
            _check_report(report, truths, True, f"search {algorithm} best", problems)
        else:
            _check_report(result, truths, False, f"eval {algorithm}", problems)
    if not workload.search and AFFINITY_CPUS > JOBS:
        # Determinism contract: the same bytes at any --jobs.
        pooled = bench.evaluate(protocol, "test", "licvpr", root, jobs=AFFINITY_CPUS)
        path = out_dir / f"licvpr-jobs{AFFINITY_CPUS}.json"
        bench.emit_report(pooled, path)
        if path.read_bytes() != first.outputs["licvpr"]:
            problems.append(f"licvpr: report at jobs={AFFINITY_CPUS} differs from jobs={JOBS}")
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload.name]
        for algorithm, digest in digests(first).items():
            if golden.get(algorithm) != digest:
                problems.append(f"{algorithm}: output sha256 {digest} differs from golden {golden.get(algorithm)}")
    return problems


def _rmse(result) -> float:
    """Report RMSE, or for a search the RMSE of its selected parameters."""
    if isinstance(result, bench.SearchResult):
        return -result.trace[-1]["objective_value"]
    return result.rmse


def digests(rnd: Round) -> dict:
    return {a: hashlib.sha256(rnd.outputs[a]).hexdigest() for a in ALGORITHMS}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Set up, measure, check; returns the run's result document."""
    root, setup_times, setup_layers = set_up(workload, seed, work, traced)
    protocol = load_protocol(root / "protocol.csv")
    out_dir = work / "out"
    out_dir.mkdir()

    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        if traced and len(rounds) % 2:
            rounds.append(traced_round(workload, root, protocol, out_dir))
        else:
            rounds.append(run_round(workload, root, protocol, out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check(workload, seed, root, protocol, rounds, out_dir)
    layers = _layer_summary(rounds, problems) if traced else {}
    n_seq = workload.split_size()
    seq_evals = sum(workload.evaluations(a) for a in ALGORITHMS) * n_seq
    attempted = seq_evals * len(rounds)
    failed = attempted if problems else sum(_failed(workload, result, n_seq) for r in rounds for result in r.results.values())

    plain = [r for r in rounds if r.layers is None]
    round_s = statistics.median(sum(r.seconds.values()) for r in plain)
    if traced:
        metrics = {**layers, **setup_layers}
        for algorithm in ALGORITHMS:
            metrics[f"bench.call.{algorithm}.s"] = statistics.median(r.seconds[algorithm] for r in plain)
        traced_s = statistics.median(sum(r.seconds.values()) for r in rounds if r.layers is not None)
        metrics["trace.overhead_frac"] = traced_s / round_s - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": seq_evals * workload.config.n_frames / round_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "rounds": len(rounds),
        "digests": digests(rounds[0]),
        "rmse_bpm": {a: _rmse(rounds[0].results[a]) for a in ALGORITHMS},
        "setup_times": setup_times,
        "round_seconds": [r.seconds for r in rounds],
    }


def _failed(workload: Workload, result, n_seq: int) -> int:
    """Failed sequence evaluations: failed rows, or every sequence of a failed candidate."""
    if not workload.search:
        return result.failed_count
    return n_seq * sum(1 for stage in result.trace for row in stage["evaluations"] if row["error"])


def _layer_summary(rounds: list, problems: list) -> dict:
    """Median of each timed layer metric over traced rounds; counters must repeat."""
    traced = [r.layers for r in rounds if r.layers is not None]
    out = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        if name in spans.EXACT:
            if len(set(values)) != 1:
                problems.append(f"counter {name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
