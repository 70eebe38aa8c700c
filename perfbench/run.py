"""rppgbench benchmark: one command per workload, seeded, self-checking.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload eval-small --seed 500 --seconds 45 --trace 0

Workloads (see ``workloads.py``), closed loop in one process at jobs=1:

* ``eval-small`` -- 64x64 frames, 60 s, ``gt.json`` truth; ``evaluate`` of
  chrom, licvpr and ssr. Per-frame Python overhead dominates.
* ``search`` -- ``greedy_search`` per algorithm on the train split, truth
  from BVP peaks; repeated evaluation of the same sequences.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: set-up time, frames scored per second over every
evaluation of the workload, peak RSS of the measured phase and the fraction
of sequence evaluations that succeeded. With ``--trace 1`` it wraps the
package's layer functions (``spans.py``) and reports the per-layer metrics
instead, plus each algorithm's call time and the tracing overhead. Every run checks its outputs (``workloads.check``). The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance and each
metric with its unit. Exits 2 when the package sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread, so that jobs x BLAS threads never exceeds the CPU count.
# Set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("eval-small", "search")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=500)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(seed: int, workload, workloads) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(f.read_bytes().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {
        "commit": commit,
        "workload": workload.name,
        "seed": seed,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "jobs": workloads.JOBS,
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit for the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rppgbench" / "__init__.py").is_file():
        print(f"perfbench: no rppgbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    declared = declared_metrics(args.trace)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = workloads.run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    measured = result["metrics"]
    if set(measured) != set(declared):
        print(
            f"perfbench: measured metrics {sorted(set(measured) ^ set(declared))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(args.seed, workload, workloads), sort_keys=True))
    print("detail " + json.dumps({k: result[k] for k in ("rounds", "digests", "rmse_bpm", "setup_times", "round_seconds")}))
    for name, unit in declared.items():
        print(f"metric {name} {measured[name]!r} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
