"""The five benchmark instances, built through the CLI, write the pinned bytes.

The configurations and the sha256 pins belong to the benchmark
(``perfbench/workloads.py`` and ``perfbench/expected.json``); these tests
only read them, so the flagship ``matrix_1252.txt`` is checked on every test
run and not only in a benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from skewhad.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import FLAGSHIP, SMALL  # noqa: E402

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


@pytest.mark.parametrize("inst", SMALL + (FLAGSHIP,), ids=lambda inst: inst.name)
def test_build_writes_the_pinned_artifacts(inst, tmp_path, capsys):
    code = main(inst.build_argv(tmp_path / inst.name))
    out = capsys.readouterr().out
    assert code == 0
    pinned = EXPECTED[inst.name]
    assert out.replace(str(tmp_path), "<work>") == pinned["stdout"]["build"]
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / inst.name).iterdir()}
    assert written == pinned["artifacts"]
