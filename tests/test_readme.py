"""README's Python examples run as written, so a stale example fails the suite.

The fenced ``python`` blocks run in order in one namespace (a later block
may use a name an earlier one bound), from a directory holding the ``ds``
dataset that README's CLI section writes, made smaller.
"""

import re
from pathlib import Path

import pytest

from rppgbench.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    # Three 72 bpm bundles; the examples read seq002.
    assert main(["synth", "--out", "ds", "--count", "3", "--train-count", "1", "--duration", "10"]) == EXIT_OK
    capsys.readouterr()
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    printed = [float(line) for line in capsys.readouterr().out.split()]
    assert printed and all(bpm == pytest.approx(72.0, abs=3.0) for bpm in printed)
