"""The benchmark's span tracer wraps named package functions from outside.

``perfbench/spans.py`` looks up ``bench.run_*``, the ``(ParamsCls,
pulse_fn, run_fn, reads)`` registry tuples, ``roi.iter_roi_pixels``,
``ssr.frame_eigen``, ``chrom.window_starts``, ``evaluate``'s ``jobs``
parameter and more by name. A refactor that drops one of them breaks the
traced benchmark run; this test catches that in the unit suite, and checks
that ``Patches.restore`` leaves every module as it found it. It only reads
``perfbench/``.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import rppgbench
from rppgbench import bench, chrom, roi, ssr, synth

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: Functions the tracer finds by name, beyond the registry's runners.
SEAMS = (
    (bench, "load_bundle"),
    (bench, "evaluate"),
    (bench, "run_chrom"),
    (bench, "run_licvpr"),
    (bench, "run_ssr"),
    (roi, "iter_roi_pixels"),
    (ssr, "frame_eigen"),
    (chrom, "window_starts"),
    (synth, "generate"),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    for info in pkgutil.iter_modules(rppgbench.__path__):
        importlib.import_module(f"rppgbench.{info.name}")
    modules = {name: m for name, m in sys.modules.items() if name == "rppgbench" or name.startswith("rppgbench.")}
    return {
        "modules": {name: dict(vars(module)) for name, module in modules.items()},
        "ALGORITHMS": dict(bench.ALGORITHMS),
    }


def _same(before: dict, after: dict) -> bool:
    """Equal keys, and the very same object under each key."""
    return before.keys() == after.keys() and all(after[key] is value for key, value in before.items())


def test_tracer_wraps_every_seam_and_restores_every_module():
    spans = _load_spans()
    before = _snapshot()
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.instrument(tracer, patches)
        spans.instrument_setup(tracer, patches)
        for module, name in SEAMS:
            assert getattr(module, name) is not before["modules"][module.__name__][name], f"{module.__name__}.{name}"
        for tag, entry in before["ALGORITHMS"].items():
            assert bench.ALGORITHMS[tag][2] is not entry[2], f"{tag} runner not wrapped"
    finally:
        patches.restore()
    after = _snapshot()
    assert before["modules"].keys() == after["modules"].keys()
    for name, namespace in before["modules"].items():
        assert _same(namespace, after["modules"][name]), name
    assert _same(before["ALGORITHMS"], after["ALGORITHMS"])
