"""Command-line surface: synth, trace, pulse, hr, eval, search.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
degeneracy. Identical arguments, input files and seed give byte-identical
output files, also with ``--jobs`` above one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    ALGORITHMS,
    OBJECTIVES,
    SearchStage,
    SequenceFeatures,
    _report_format,
    build_params,
    emit_report,
    evaluate,
    extract_pulse,
    greedy_search,
    read_bundle,
)
from .errors import DataError, FormatError, NumericDegeneracyError
from .hr import estimate_hr_spectral
from .io import SPLITS, _check_even_steps, _read_json, affinity_cpus, load_protocol, read_series_csv, write_series_csv
from .roi import STRATEGIES, check_selection
from .signals import BandHz, Signal1D
from .ssr import SsrParams
from .synth import SynthConfig, build_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_overrides(pairs, algorithm: str) -> dict:
    """Turn ``key=value`` / ``algo.key=value`` strings into an override dict."""
    overrides = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        prefix, dot, field = key.partition(".")
        if dot:
            if prefix != algorithm:
                raise ValueError(
                    f"override {pair!r} addresses {prefix!r} but the algorithm is {algorithm!r}"
                )
            key = field
        if key in overrides:
            raise ValueError(f"duplicate override for {key!r}")
        overrides[key] = value
    return overrides


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rppgbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="generate synthetic sequence bundles")
    p_synth.add_argument("--out", required=True, help="dataset root directory")
    p_synth.add_argument("--hr", type=float, default=72.0, help="heart rate in bpm")
    p_synth.add_argument("--hr-range", metavar="LO:HI", help="spread rates evenly over LO..HI")
    p_synth.add_argument("--count", type=_positive_int, default=1, help="number of sequences")
    p_synth.add_argument("--train-count", type=int, default=0, help="how many lead sequences go to the train split")
    p_synth.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_synth.add_argument("--duration", type=float, default=20.0, help="seconds per sequence")
    p_synth.add_argument("--fps", type=int, default=20)
    p_synth.add_argument("--width", type=int, default=64)
    p_synth.add_argument("--height", type=int, default=64)
    p_synth.add_argument("--noise-sd", type=float, default=1.0)
    p_synth.add_argument("--drift-freq", type=float, default=0.0, help="illumination drift frequency in Hz")
    p_synth.add_argument("--drift-amp", type=float, default=0.0, help="illumination drift amplitude in pixel values")
    p_synth.set_defaults(func=cmd_synth)

    p_trace = sub.add_parser("trace", help="average ROI pixels into an RGB trace CSV")
    p_trace.add_argument("video", help=".rvid input")
    p_trace.add_argument("--roi", required=True, help="ROI track CSV")
    p_trace.add_argument("--strategy", choices=STRATEGIES, default="bbox")
    p_trace.add_argument("--tau", type=float, default=0.3, help="skin likelihood threshold")
    p_trace.add_argument("--out", help="output CSV (default: trace.csv next to the video)")
    p_trace.set_defaults(func=cmd_trace)

    p_pulse = sub.add_parser("pulse", help="extract a pulse waveform CSV")
    p_pulse.add_argument("video", help=".rvid input")
    p_pulse.add_argument("--roi", required=True, help="ROI track CSV")
    p_pulse.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_pulse.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                         help="parameter override, may repeat (e.g. chrom.window_s=1.6)")
    p_pulse.add_argument("--out", help="output CSV (default: pulse.csv next to the video)")
    p_pulse.set_defaults(func=cmd_pulse)

    p_hr = sub.add_parser("hr", help="estimate bpm from a pulse CSV")
    p_hr.add_argument("pulse_csv", help="t,value CSV as written by the pulse command")
    p_hr.add_argument("--band-lo", type=float, default=SsrParams.band.lo)
    p_hr.add_argument("--band-hi", type=float, default=SsrParams.band.hi)
    p_hr.set_defaults(func=cmd_hr)

    p_eval = sub.add_parser("eval", help="evaluate an algorithm over a protocol split")
    p_eval.add_argument("--root", required=True, help="dataset root directory")
    p_eval.add_argument("--protocol", required=True, help="protocol CSV")
    p_eval.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_eval.add_argument("--split", choices=SPLITS, default="test")
    p_eval.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p_eval.add_argument("--out", required=True, help="report path (.csv or .json)")
    p_eval.add_argument("--jobs", type=_positive_int, default=affinity_cpus())
    p_eval.set_defaults(func=cmd_eval)

    p_search = sub.add_parser("search", help="greedy stage-wise parameter search")
    p_search.add_argument("--root", required=True, help="dataset root directory")
    p_search.add_argument("--protocol", required=True, help="protocol CSV")
    p_search.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_search.add_argument("--stages", required=True, help="stage grid JSON file")
    p_search.add_argument("--objective", choices=OBJECTIVES, default="pearson")
    p_search.add_argument("--split", choices=SPLITS, default="train")
    p_search.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                          help="fixed defaults applied to every candidate")
    p_search.add_argument("--out", required=True, help="output JSON (best params + trace)")
    p_search.add_argument("--jobs", type=_positive_int, default=affinity_cpus())
    p_search.set_defaults(func=cmd_search)
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if not 0 <= args.train_count < args.count:
        raise ValueError("--train-count must be >= 0 and leave at least one test sequence")
    if args.hr_range:
        lo_s, sep, hi_s = args.hr_range.partition(":")
        if not sep:
            raise ValueError("--hr-range must look like LO:HI")
        hrs = list(np.linspace(float(lo_s), float(hi_s), args.count))  # one sequence gets LO
    else:
        hrs = [args.hr] * args.count
    splits = ["train"] * args.train_count + ["test"] * (args.count - args.train_count)
    base = SynthConfig(
        width=args.width,
        height=args.height,
        fps=args.fps,
        duration_s=args.duration,
        noise_sd=args.noise_sd,
        illum_drift=(args.drift_freq, args.drift_amp),
        seed=args.seed,
    )
    build_dataset(args.out, list(zip(hrs, splits)), base_config=base, base_seed=args.seed)
    return EXIT_OK


def cmd_trace(args) -> int:
    check_selection(args.strategy, args.tau)
    trace = SequenceFeatures.of(read_bundle(args.video, args.roi)).rgb_trace(args.strategy, args.tau)
    out = Path(args.out) if args.out else Path(args.video).parent / "trace.csv"
    fallback = set(trace.fallback_frames)
    with open(out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("frame,r_mean,g_mean,b_mean,pixel_count,fallback\n")
        for i in range(len(trace)):
            r, g, b = trace.means[i].tolist()
            fh.write(f"{i},{r!r},{g!r},{b!r},{trace.pixel_counts[i]},{int(i in fallback)}\n")
    return EXIT_OK


def cmd_pulse(args) -> int:
    bundle = read_bundle(args.video, args.roi)
    overrides = _parse_overrides(args.overrides, args.algo)
    params = build_params(args.algo, overrides)
    pulse = extract_pulse(bundle, args.algo, params)
    out = Path(args.out) if args.out else Path(args.video).parent / "pulse.csv"
    t = np.arange(len(pulse)) / pulse.fs
    write_series_csv(t, pulse.samples, out)
    return EXIT_OK


def cmd_hr(args) -> int:
    t, values = read_series_csv(args.pulse_csv)
    if t.size < 2:
        raise DataError(f"{args.pulse_csv}: pulse CSV must contain at least 2 samples")
    _check_even_steps(args.pulse_csv, t, None, "the median step")
    fs = (t.size - 1) / (t[-1] - t[0])
    band = BandHz(args.band_lo, args.band_hi)
    if band.lo >= fs / 2:  # no file at this rate can hold the band: a usage error
        raise ValueError(f"band [{band.lo}, {band.hi}] Hz is empty below the {fs / 2} Hz Nyquist limit")
    estimate = estimate_hr_spectral(Signal1D(values, fs), band)
    print(f"{estimate.bpm:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _report_format(Path(args.out))
    protocol = load_protocol(args.protocol)
    overrides = _parse_overrides(args.overrides, args.algo)
    params = build_params(args.algo, overrides)
    report = evaluate(protocol, args.split, args.algo, args.root, params=params, jobs=args.jobs)
    emit_report(report, args.out)
    rho = "undefined" if report.pearson_rho is None else f"{report.pearson_rho:.4f}"
    print(f"rmse={report.rmse:.4f} pearson={rho} ok={report.ok_count} failed={report.failed_count}")
    return EXIT_OK


def _load_stages(path) -> list:
    stage_path = Path(path)
    payload = _read_json(stage_path)
    if not isinstance(payload, list) or not payload:
        raise FormatError("expected a non-empty JSON list of stages", path=str(stage_path))
    try:
        return [SearchStage.from_dict(item, default_name=f"stage{i}") for i, item in enumerate(payload)]
    except DataError as exc:
        raise FormatError(str(exc), path=str(stage_path)) from None


def cmd_search(args) -> int:
    protocol = load_protocol(args.protocol)
    stages = _load_stages(args.stages)
    defaults = _parse_overrides(args.overrides, args.algo)
    result = greedy_search(stages, protocol, args.algo, args.root, objective=args.objective, defaults=defaults,
                           split=args.split, jobs=args.jobs)
    Path(args.out).write_text(json.dumps(result.to_jsonable(), indent=2) + "\n", encoding="utf-8")
    best = " ".join(f"{k}={v}" for k, v in sorted(result.best_params.items()))
    print(f"evaluations={result.n_evaluations} best: {best}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
